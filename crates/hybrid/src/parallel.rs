//! Real (measured) executors: which ranges run where.
//!
//! Every executor steps the one model, [`mpas_swe::ShallowWaterModel`],
//! whose range ops run on a persistent [`mpas_swe::Team`]. The executors
//! differ only in the team's weights (the paper's "adjustable part"): one
//! part is the serial reference, equal parts the OpenMP-analog threaded
//! executor, and [`hybrid_weights`] the two-device executor of Fig. 4 (b),
//! whose first `cpu_threads` parts stand in for the host CPU and the rest
//! for the accelerator, sized at the platform's throughput ratio, so every
//! pattern of every stage is divided between the two devices. Both
//! simulated devices run on the host's cores, so the accelerator's speed
//! is *modeled* via `crate::sched`; what is verified here is bit-for-bit
//! agreement with the serial code (the paper's §V.A validation).

use mpas_sched::platform::Platform;

/// Team weights of a `hybrid:cpu_threads:acc_threads` executor: the
/// accelerator parts together take
/// `acc_fraction = acc.mem_bw / (acc.mem_bw + cpu.mem_bw)` of every range,
/// the host parts the rest, each device's share split equally among its
/// parts (at least one part each).
pub fn hybrid_weights(platform: &Platform, cpu_threads: usize, acc_threads: usize) -> Vec<f64> {
    let acc_fraction = platform.acc.mem_bw / (platform.acc.mem_bw + platform.cpu.mem_bw);
    let (cpu, acc) = (cpu_threads.max(1), acc_threads.max(1));
    let mut weights = vec![(1.0 - acc_fraction) / cpu as f64; cpu];
    weights.extend(vec![acc_fraction / acc as f64; acc]);
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpas_mesh::Mesh;
    use mpas_swe::{ModelConfig, ShallowWaterModel, Team, TestCase};
    use std::sync::Arc;

    fn mesh() -> Arc<Mesh> {
        Arc::new(mpas_mesh::generate(3, 0))
    }

    fn on_team(mesh: &Arc<Mesh>, tc: TestCase, team: Team, host: usize) -> ShallowWaterModel {
        ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), tc, None).with_team(team, host)
    }

    #[test]
    fn parallel_model_matches_serial_bitwise() {
        let mesh = mesh();
        let tc = TestCase::Case5;
        let mut serial = ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), tc, None);
        let mut par = on_team(&mesh, tc, Team::equal(3), 3);
        serial.run_steps(5);
        par.run_steps(5);
        assert_eq!(
            serial.state.max_abs_diff(&par.state),
            0.0,
            "threaded result differs from serial"
        );
    }

    #[test]
    fn hybrid_model_matches_serial_bitwise() {
        let mesh = mesh();
        let tc = TestCase::Case6;
        let mut serial = ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), tc, None);
        let weights = hybrid_weights(&Platform::paper_node(), 2, 2);
        let mut hyb = on_team(&mesh, tc, Team::new(&weights), 2);
        serial.run_steps(4);
        hyb.run_steps(4);
        assert_eq!(serial.state.max_abs_diff(&hyb.state), 0.0);
    }

    #[test]
    fn split_fraction_reflects_platform() {
        let w = hybrid_weights(&Platform::paper_node(), 1, 3);
        assert_eq!(w.len(), 4);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let acc_fraction: f64 = w[1..].iter().sum();
        assert!(acc_fraction > 0.5, "accelerator should take the majority");
        assert!(acc_fraction < 0.8);
        assert!(w[1] == w[2] && w[2] == w[3], "equal accelerator parts");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mesh = mesh();
        let tc = TestCase::Case2 { alpha: 0.4 };
        let mut one = on_team(&mesh, tc, Team::equal(1), 1);
        let mut four = on_team(&mesh, tc, Team::equal(4), 4);
        one.run_steps(3);
        four.run_steps(3);
        assert_eq!(one.state.max_abs_diff(&four.state), 0.0);
    }
}
