//! The PR-9 kernel-tier equivalence matrix (DESIGN.md §14).
//!
//! The simd tier batches vertically: each layer lane replays the fused
//! tier's arithmetic in the fused tier's order, so there are no reordered
//! reductions anywhere in the backend — equality is *bitwise*, not
//! approximate, and these tests assert exactly that:
//!
//! * flat (`k = 1`) simd runs hash-match fused runs on every catalog
//!   scenario;
//! * layer 0 of a `k`-layer run hash-matches the flat fused run for
//!   `k ∈ {1, 4, 7}`;
//! * every deeper layer matches a flat fused run started from that layer's
//!   perturbed initial state.

use mpas_swe::layers::layer_h_scale;
use mpas_swe::validation::CATALOG;
use mpas_swe::{KernelBackend, ModelConfig, ShallowWaterModel};
use std::sync::Arc;

const LEVEL: u32 = 4;
const STEPS: usize = 3;

fn state_bits(m: &ShallowWaterModel) -> Vec<u64> {
    m.state
        .h
        .iter()
        .chain(&m.state.u)
        .chain(m.state.tracers.iter().flatten())
        .map(|v| v.to_bits())
        .collect()
}

fn run_flat(
    mesh: &Arc<mpas_mesh::Mesh>,
    config: ModelConfig,
    tc: mpas_swe::TestCase,
) -> ShallowWaterModel {
    let mut m = ShallowWaterModel::new(mesh.clone(), config, tc, None);
    m.run_steps(STEPS);
    m
}

#[test]
fn flat_simd_matches_fused_bitwise_on_every_catalog_case() {
    let mesh = Arc::new(mpas_mesh::generate(LEVEL, 0));
    for sc in &CATALOG {
        let fused = run_flat(&mesh, sc.config(), sc.test_case);
        let simd = run_flat(
            &mesh,
            ModelConfig {
                kernel_backend: KernelBackend::Simd,
                ..sc.config()
            },
            sc.test_case,
        );
        assert_eq!(
            state_bits(&fused),
            state_bits(&simd),
            "{}: flat simd diverged from fused",
            sc.name
        );
    }
}

#[test]
fn layered_runs_match_fused_bitwise_per_layer_across_k() {
    let mesh = Arc::new(mpas_mesh::generate(LEVEL, 0));
    for sc in &CATALOG {
        // k = 7 on one representative scenario keeps the matrix fast; every
        // scenario still runs k ∈ {1, 4}.
        let ks: &[usize] = if sc.name == "williamson-5" {
            &[1, 4, 7]
        } else {
            &[1, 4]
        };
        let fused = run_flat(&mesh, sc.config(), sc.test_case);
        for &k in ks {
            let cfg = ModelConfig {
                kernel_backend: KernelBackend::Simd,
                n_layers: k,
                ..sc.config()
            };
            let mut layered = ShallowWaterModel::new(mesh.clone(), cfg, sc.test_case, None);
            layered.run_steps(STEPS);
            let l0 = layered.extract_layer(0);
            assert_eq!(
                state_bits(&fused),
                l0.h.iter()
                    .chain(&l0.u)
                    .chain(l0.tracers.iter().flatten())
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{} k={k}: layer 0 diverged from the flat fused run",
                sc.name
            );
        }
    }
}

#[test]
fn deeper_layers_match_flat_fused_runs_from_their_scaled_states() {
    let mesh = Arc::new(mpas_mesh::generate(3, 0));
    let tc = mpas_swe::TestCase::Case5;
    let k = 4;
    let cfg = ModelConfig {
        kernel_backend: KernelBackend::Simd,
        n_layers: k,
        n_tracers: 1,
        ..Default::default()
    };
    let mut layered = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
    let dt = layered.dt;
    layered.run_steps(STEPS);
    for l in 1..k {
        let flat_cfg = ModelConfig {
            n_tracers: 1,
            ..Default::default()
        };
        let mut flat = ShallowWaterModel::new(mesh.clone(), flat_cfg, tc, Some(dt));
        let s = layer_h_scale(l);
        for h in flat.state.h.iter_mut() {
            *h *= s;
        }
        for tr in flat.state.tracers.iter_mut() {
            for q in tr.iter_mut() {
                *q *= s;
            }
        }
        flat.refresh_diagnostics();
        flat.run_steps(STEPS);
        let got = layered.extract_layer(l);
        assert_eq!(
            state_bits(&flat),
            got.h
                .iter()
                .chain(&got.u)
                .chain(got.tracers.iter().flatten())
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "layer {l} diverged from its flat fused twin"
        );
    }
}
