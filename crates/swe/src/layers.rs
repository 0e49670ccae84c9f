//! Vertical layers (DESIGN.md §14).
//!
//! A model of `k = config.n_layers` layers carries `k` *independent*
//! shallow-water instances sharing one mesh, topography, Coriolis field
//! and `dt`, stored structure-of-arrays with **layer-major contiguous lanes
//! per entity**: `h[cell * k + lane]`, `u[edge * k + lane]`. One gathered
//! stencil index then feeds all `k` lanes — exactly the amortization the
//! [`crate::kernels::simd`] tier exploits — and extracting lane `l` with a
//! stride-`k` copy ([`crate::State::extract_layer`]) recovers a
//! single-lane state.
//!
//! Layer 0 carries the unperturbed test case (validation applies to it
//! unchanged); layer `l > 0` starts from the same state with `h` and the
//! tracer masses scaled by [`layer_h_scale`], so the lanes decorrelate
//! without changing any per-lane arithmetic. Because every simd kernel
//! evaluates the fused expression per lane, **layer 0 of a `k`-layer run
//! is bitwise identical to a single-layer fused run**, and layer `l` is
//! bitwise identical to a single-layer run started from the scaled state —
//! properties the equivalence suite asserts with `==`, not tolerances.

/// Thickness/tracer scale factor of layer `l`: layer 0 is the unperturbed
/// test case, deeper layers are progressively (and deterministically)
/// perturbed so the lanes carry distinct data.
pub fn layer_h_scale(l: usize) -> f64 {
    1.0 + 1e-3 * l as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelBackend, ModelConfig};
    use crate::model::ShallowWaterModel;
    use crate::state::State;
    use crate::team::Team;
    use crate::testcases::TestCase;
    use mpas_telemetry::Recorder;
    use std::sync::Arc;

    fn simd_config(n_layers: usize, n_tracers: usize) -> ModelConfig {
        ModelConfig {
            kernel_backend: KernelBackend::Simd,
            n_layers,
            n_tracers,
            ..Default::default()
        }
    }

    #[test]
    fn broadcast_extract_roundtrip() {
        let mesh = mpas_mesh::generate(2, 0);
        let flat = TestCase::Case5.initial_state_with_tracers(&mesh, 1);
        let layered = State::broadcast(&mesh, &flat, 3);
        // Layer 0 is the unperturbed state, bit for bit.
        assert_eq!(layered.extract_layer(&mesh, 0), flat);
        // Layer 2 carries scaled thickness with shared velocity.
        let l2 = layered.extract_layer(&mesh, 2);
        assert_eq!(l2.u, flat.u);
        assert_eq!(l2.h[5], flat.h[5] * layer_h_scale(2));
        assert_eq!(l2.tracers[0][5], flat.tracers[0][5] * layer_h_scale(2));
    }

    #[test]
    fn layer0_matches_single_layer_fused_run_bitwise() {
        // The central §14 claim: every lane replays the fused arithmetic,
        // so layer 0 of a k-layer run IS the single-layer fused run — on a
        // one-part team and on a split one.
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        for tc in [TestCase::Case5, TestCase::Case4] {
            let mut flat = ShallowWaterModel::new(
                mesh.clone(),
                ModelConfig {
                    n_tracers: 1,
                    ..Default::default()
                },
                tc,
                None,
            );
            flat.run_steps(3);
            for parts in [1, 3] {
                let mut layered = ShallowWaterModel::new(mesh.clone(), simd_config(4, 1), tc, None)
                    .with_team(Team::equal(parts), parts);
                layered.run_steps(3);
                assert_eq!(
                    layered.layer0().max_abs_diff(&flat.state),
                    0.0,
                    "{tc:?} on {parts} parts: layer 0 diverged from the fused run"
                );
            }
        }
    }

    #[test]
    fn deeper_layers_match_flat_runs_from_scaled_states() {
        // Layer l>0 is bitwise a single-layer fused run started from the
        // scaled initial state (same broadcast forcing, same dt).
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let k = 3;
        let mut layered =
            ShallowWaterModel::new(mesh.clone(), simd_config(k, 0), TestCase::Case5, None);
        layered.run_steps(2);
        for l in 1..k {
            let mut flat =
                ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case5, None);
            for h in flat.state.h.iter_mut() {
                *h *= layer_h_scale(l);
            }
            flat.refresh_diagnostics();
            flat.run_steps(2);
            assert_eq!(
                layered.extract_layer(l).max_abs_diff(&flat.state),
                0.0,
                "layer {l} diverged"
            );
        }
    }

    #[test]
    fn all_layers_conserve_mass() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let k = 4;
        let mut m = ShallowWaterModel::new(mesh, simd_config(k, 0), TestCase::Case5, None);
        let m0: Vec<f64> = (0..k).map(|l| m.total_mass_layer(l)).collect();
        m.run_steps(8);
        for (l, &before) in m0.iter().enumerate() {
            let drift = (m.total_mass_layer(l) - before) / before;
            assert!(drift.abs() < 1e-13, "layer {l} mass drift {drift:e}");
        }
        // Scaled layers really carry distinct mass.
        assert!(m0[1] > m0[0]);
    }

    #[test]
    fn forced_case_background_stays_fixed_across_layer0() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m = ShallowWaterModel::new(mesh.clone(), simd_config(2, 0), TestCase::Case4, None);
        // Replace every lane of the state with the bare background (lane 0
        // only is the true equilibrium; lane 1 is scaled and may drift).
        let bg = TestCase::Case4.background_state(&mesh);
        m.state = State::broadcast(&mesh, &bg, 2);
        m.refresh_diagnostics();
        let before = m.state.extract_layer(&mesh, 0);
        m.run_steps(2);
        assert_eq!(m.layer0().max_abs_diff(&before), 0.0, "background drifted");
    }

    #[test]
    fn per_kernel_telemetry_spans_land() {
        let rec = Recorder::new();
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let mut m = ShallowWaterModel::new(mesh, simd_config(2, 1), TestCase::Case5, None)
            .with_recorder(rec.clone());
        m.run_steps(1);
        let snap = rec.snapshot();
        // The simd traversal fusions run as one op each.
        for label in [
            "A1", "B1", "H2", "C2E", "A2B2", "A3", "F", "H1G", "T1", "X1",
        ] {
            let name = format!("hybrid.kernel.{label}.seconds");
            let h = snap.histogram(&name).unwrap_or_else(|| panic!("{name}"));
            assert!(h.count > 0, "{name} empty");
        }
        assert!(snap.histogram("hybrid.kernel.C2.seconds").is_none());
        assert_eq!(snap.histogram("hybrid.step_seconds").unwrap().count, 1);
    }
}
