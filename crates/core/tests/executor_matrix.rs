//! Cross-executor equivalence matrix over the full scenario catalog.
//!
//! The repo's central numerical contract is that every executor computes
//! bitwise-identical prognostic fields — the pattern kernels are free
//! functions over explicit index ranges, and the executors differ only in
//! which pool computes which range. This test drives that contract
//! through *every* catalog scenario (all six Williamson cases, Galewsky,
//! and the tracer variant) on all four engines: serial, threaded, hybrid,
//! and the 4-rank distributed driver — and through every kernel tier
//! (scalar, fused, simd), since the backend switch must be invisible to
//! the executors. The FNV digest covers `h`, `u`, and every tracer-mass
//! field, so a single flipped mantissa bit anywhere fails the matrix.

use mpas_core::{build_mesh, run_distributed, state_hash, DistributedConfig, Executor, Simulation};
use mpas_mesh::{Mesh, Reordering};
use mpas_swe::validation::CATALOG;
use mpas_swe::{KernelBackend, ModelConfig};
use std::sync::Arc;

const STEPS: usize = 5;

fn run_engine(
    mesh: &Arc<Mesh>,
    config: ModelConfig,
    tc: mpas_swe::TestCase,
    dt: f64,
    executor: Executor,
) -> u64 {
    let mut sim = Simulation::builder()
        .mesh(mesh.clone())
        .test_case(tc)
        .config(config)
        .executor(executor)
        .dt(dt)
        .build();
    sim.run_steps(STEPS);
    state_hash(sim.state())
}

#[test]
fn every_catalog_case_is_bitwise_identical_across_executors() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    for sc in &CATALOG {
        for backend in KernelBackend::ALL {
            let config = ModelConfig {
                kernel_backend: backend,
                ..sc.config()
            };
            let tag = format!("{} ({})", sc.name, backend.name());
            let serial = run_engine(&mesh, config, sc.test_case, dt, Executor::Serial);
            let threaded = run_engine(
                &mesh,
                config,
                sc.test_case,
                dt,
                Executor::Threaded { threads: 4 },
            );
            let hybrid = run_engine(
                &mesh,
                config,
                sc.test_case,
                dt,
                Executor::Hybrid {
                    cpu_threads: 2,
                    acc_threads: 2,
                },
            );
            assert_eq!(serial, threaded, "{tag}: threaded differs from serial");
            assert_eq!(serial, hybrid, "{tag}: hybrid differs from serial");

            let dist = run_distributed(
                &mesh,
                DistributedConfig {
                    n_ranks: 4,
                    halo_layers: 3,
                    model: config,
                    test_case: sc.test_case,
                    dt,
                    n_steps: STEPS,
                },
            );
            assert_eq!(
                serial,
                state_hash(&dist),
                "{tag}: distributed differs from serial"
            );
        }
    }
}

/// The catalog configs carry no viscosity, so this row drives the optional
/// tendency and diagnostic paths (del2, del4 hyperviscosity, high-order
/// thickness flux) through the threaded and hybrid executors, including an
/// uneven `hybrid:2:3` team, on every kernel tier.
#[test]
fn viscosity_and_high_order_are_bitwise_identical_across_executors() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    let tc = mpas_swe::TestCase::Case6;
    let configs = [
        (
            "del2",
            ModelConfig {
                del2_viscosity: 1.0e5,
                ..Default::default()
            },
        ),
        (
            "del4",
            ModelConfig {
                del4_viscosity: 5.0e14,
                ..Default::default()
            },
        ),
        (
            "high-order h_edge",
            ModelConfig {
                high_order_h_edge: true,
                ..Default::default()
            },
        ),
    ];
    let executors = [
        ("threaded:3", Executor::Threaded { threads: 3 }),
        (
            "hybrid:1:1",
            Executor::Hybrid {
                cpu_threads: 1,
                acc_threads: 1,
            },
        ),
        (
            "hybrid:2:3",
            Executor::Hybrid {
                cpu_threads: 2,
                acc_threads: 3,
            },
        ),
    ];
    for (name, base) in configs {
        for backend in KernelBackend::ALL {
            let config = ModelConfig {
                kernel_backend: backend,
                ..base
            };
            let serial = run_engine(&mesh, config, tc, dt, Executor::Serial);
            for (exec_name, executor) in executors {
                assert_eq!(
                    serial,
                    run_engine(&mesh, config, tc, dt, executor),
                    "{name} ({}): {exec_name} differs from serial",
                    backend.name()
                );
            }
        }
    }
}

/// The layered facade: a k-layer simd `Simulation` exposes its layer-0
/// fields through the same `state()` accessor, and layer 0 must be
/// bitwise identical to the flat fused serial run — the lane-replay
/// contract of DESIGN.md §14 surfaced at the service-facing API.
#[test]
fn layered_facade_layer0_matches_flat_runs_bitwise() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    let tc = mpas_swe::TestCase::Case5;
    let flat = run_engine(&mesh, ModelConfig::default(), tc, dt, Executor::Serial);

    let mut sim = Simulation::builder()
        .mesh(mesh.clone())
        .test_case(tc)
        .config(ModelConfig {
            kernel_backend: KernelBackend::Simd,
            n_layers: 4,
            ..Default::default()
        })
        .executor(Executor::Serial)
        .dt(dt)
        .build();
    assert_eq!(sim.n_layers(), 4);
    sim.run_steps(STEPS);
    assert_eq!(
        state_hash(sim.state()),
        flat,
        "layer 0 of the layered facade diverged from the flat fused run"
    );
    // The full-state digest folds all k lanes, so it must differ from the
    // single-layer digest (deeper layers carry perturbed thickness).
    assert_ne!(sim.state_digest(), flat);
}

/// The k-layer simd tier on every executor: each team split reproduces the
/// serial run of the same layer count on every lane, bit for bit.
#[test]
fn simd_layers_are_bitwise_identical_across_executors() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    let tc = mpas_swe::TestCase::Case5;
    let digest = |k: usize, executor: Executor| {
        let mut sim = Simulation::builder()
            .mesh(mesh.clone())
            .test_case(tc)
            .config(ModelConfig {
                kernel_backend: KernelBackend::Simd,
                n_layers: k,
                n_tracers: 1,
                ..Default::default()
            })
            .executor(executor)
            .dt(dt)
            .build();
        assert_eq!(sim.n_layers(), k);
        sim.run_steps(STEPS);
        sim.state_digest()
    };
    for k in [1, 4] {
        let serial = digest(k, Executor::Serial);
        for (name, executor) in [
            ("threaded:2", Executor::Threaded { threads: 2 }),
            (
                "hybrid:1:1",
                Executor::Hybrid {
                    cpu_threads: 1,
                    acc_threads: 1,
                },
            ),
        ] {
            assert_eq!(serial, digest(k, executor), "simd k={k}: {name} differs");
        }
    }
}

/// Two ranks on every kernel tier match the serial run of that tier.
#[test]
fn two_ranks_match_serial_on_every_backend() {
    let mesh = build_mesh(3, 0, Reordering::None);
    let dt = ModelConfig::suggested_dt(&mesh);
    let tc = mpas_swe::TestCase::Case6;
    for backend in KernelBackend::ALL {
        let config = ModelConfig {
            kernel_backend: backend,
            n_tracers: 1,
            ..Default::default()
        };
        let serial = run_engine(&mesh, config, tc, dt, Executor::Serial);
        let dist = run_distributed(
            &mesh,
            DistributedConfig {
                n_ranks: 2,
                halo_layers: 3,
                model: config,
                test_case: tc,
                dt,
                n_steps: STEPS,
            },
        );
        assert_eq!(
            serial,
            state_hash(&dist),
            "{}: 2 ranks differ",
            backend.name()
        );
    }
}
