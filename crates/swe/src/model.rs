//! The shallow-water model: one state layout and one RK-4 stepper (the
//! paper's Algorithm 1) for every executor and every layer count.
//!
//! Every range op of every stage — the Table-I kernels, the provisional and
//! accumulate passes, the velocity reconstruction — runs its kernel body
//! over the contiguous parts of a [`Team`]. A one-part team runs the ops
//! inline on the caller (the serial reference); an equal team is the
//! threaded (OpenMP-analog) executor; a team weighted into host and
//! accelerator parts is the pattern-driven hybrid executor of Fig. 4 (b).
//! The executors thus differ only in *which ranges run where* (the paper's
//! "adjustable part"), and because every part computes each index with the
//! same arithmetic, their results are bitwise-equal.
//!
//! Fields carry `config.n_layers` lanes per entity (DESIGN.md §14). On the
//! simd backend three pairs of kernels share one traversal (C2+E, A2+B2,
//! H1+G); every backend fuses the provisional update with the RK
//! accumulation (X2+X4) and swaps the accumulator into the state at the
//! last stage. Each fused op stores exactly the bits of its unfused parts.

use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use crate::kernels::{dispatch, ops, simd};
use crate::norms::ErrorNorms;
use crate::reconstruct::ReconstructCoeffs;
use crate::rk4::{RK_SUBSTEP, RK_WEIGHTS};
use crate::state::{Diagnostics, Reconstruction, State, Tendencies};
use crate::team::Team;
use crate::testcases::TestCase;
use mpas_mesh::Mesh;
use mpas_telemetry::Recorder;
use std::ops::Range;
use std::sync::Arc;

/// A team plus the telemetry that times its ops.
struct Exec {
    team: Team,
    /// Parts `0..host_parts` are the host's; the rest (none unless the team
    /// is a hybrid one) are the accelerator's.
    host_parts: usize,
    /// Telemetry sink (`hybrid.*` timers, step spans); no-op by default.
    rec: Recorder,
}

impl Exec {
    /// A one-part team without telemetry.
    fn inline() -> Self {
        Exec {
            team: Team::equal(1),
            host_parts: 1,
            rec: Recorder::noop(),
        }
    }

    /// Whether ops and stages also become trace spans: on a team of
    /// several parts. A one-part team runs its ops back to back on the
    /// caller, so it keeps the per-op timers but emits no per-op spans,
    /// which would cost span storage and flight-ring traffic per kernel.
    fn spans(&self) -> bool {
        self.rec.is_enabled() && self.team.parts() > 1
    }

    /// Run `ops` on the team under the `hybrid.kernel.<label>.seconds`
    /// timer of one Table-I kernel, as a `measured`-track span on a
    /// multi-part team (no allocation, one branch, when telemetry is off).
    fn op(&mut self, label: &str, ops: impl FnOnce(&mut Team)) {
        let _g = self.rec.is_enabled().then(|| {
            let metric = format!("hybrid.kernel.{label}.seconds");
            if self.spans() {
                self.rec.span_timed("measured", label, &metric)
            } else {
                self.rec.time(&metric)
            }
        });
        ops(&mut self.team);
    }

    /// [`Exec::op`] for one single-output range op, which also times each
    /// device's share under `hybrid.split.<label>.{cpu,acc}.seconds` on a
    /// team with accelerator parts.
    fn run<F>(&mut self, label: &str, k: usize, out: &mut [f64], f: F)
    where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        self.op(label, |team| team.run(k, out, f));
        self.split(label);
    }

    /// [`Exec::run`] for a range op writing two outputs.
    fn run2<F>(&mut self, label: &str, k: usize, a: &mut [f64], b: &mut [f64], f: F)
    where
        F: Fn(Range<usize>, &mut [f64], &mut [f64]) + Sync,
    {
        self.op(label, |team| team.run2(k, a, b, f));
        self.split(label);
    }

    fn split(&self, label: &str) {
        let (h, n) = (self.host_parts, self.team.parts());
        if self.rec.is_enabled() && h < n {
            let (cpu, acc) = (self.team.finish_secs(0..h), self.team.finish_secs(h..n));
            self.rec
                .record(&format!("hybrid.split.{label}.cpu.seconds"), cpu);
            self.rec
                .record(&format!("hybrid.split.{label}.acc.seconds"), acc);
        }
    }
}

/// What the operators read besides the fields they are handed.
#[derive(Clone, Copy)]
struct Env<'a> {
    mesh: &'a Mesh,
    config: &'a ModelConfig,
    kc: &'a KernelCoeffs,
    b: &'a [f64],
    f_vertex: &'a [f64],
    dt: f64,
}

/// Scratch of the chained del4 operator: the Laplacian of `u` at edges and
/// its divergence and curl (empty unless `del4_viscosity != 0`).
struct Del4 {
    lap: Vec<f64>,
    div_lap: Vec<f64>,
    vort_lap: Vec<f64>,
}

impl Del4 {
    fn new(mesh: &Mesh, config: &ModelConfig, k: usize) -> Self {
        let n = |entities: usize| {
            if config.del4_viscosity != 0.0 {
                entities * k
            } else {
                0
            }
        };
        Del4 {
            lap: vec![0.0; n(mesh.n_edges())],
            div_lap: vec![0.0; n(mesh.n_cells())],
            vort_lap: vec![0.0; n(mesh.n_vertices())],
        }
    }
}

/// `compute_solve_diagnostics`: every diagnostic field from `(h, u)`, whose
/// length sets the lane count.
fn solve_diagnostics(x: &mut Exec, env: Env, h: &[f64], u: &[f64], d: &mut Diagnostics) {
    let Env {
        mesh,
        config,
        kc,
        f_vertex,
        dt,
        ..
    } = env;
    let (backend, k) = (config.kernel_backend, h.len() / mesh.n_cells());
    let Diagnostics {
        h_edge,
        ke,
        vorticity,
        vorticity_cell,
        divergence,
        pv_vertex,
        pv_cell,
        pv_edge,
        v,
        d2fdx2_cell1,
        d2fdx2_cell2,
    } = d;
    if config.high_order_h_edge {
        x.run2("D1D2", k, d2fdx2_cell1, d2fdx2_cell2, |r, o1, o2| {
            dispatch::d2fdx2(backend, mesh, kc, h, o1, o2, r)
        });
    }
    let (d1, d2) = (&d2fdx2_cell1[..], &d2fdx2_cell2[..]);
    x.run("H2", k, h_edge, |r, o| {
        dispatch::h_edge(backend, mesh, kc, config, h, d1, d2, o, r)
    });
    if config.advection_only {
        // Williamson TC1: only the thickness flux is needed (the PV chain
        // would divide by the zero-thickness tracer field).
        return;
    }
    if backend == KernelBackend::Simd {
        x.run2("C2E", k, vorticity, pv_vertex, |r, vo, pv| {
            simd::vorticity_pv(mesh, kc, k, u, h, f_vertex, vo, pv, r)
        });
        x.run2("A2B2", k, ke, divergence, |r, ke, div| {
            simd::ke_divergence(mesh, kc, k, u, ke, div, r)
        });
    } else {
        x.run("C2", k, vorticity, |r, o| {
            dispatch::vorticity(backend, mesh, kc, u, o, r)
        });
        x.run("A2", k, ke, |r, o| dispatch::ke(backend, mesh, kc, u, o, r));
        x.run("B2", k, divergence, |r, o| {
            dispatch::divergence(backend, mesh, kc, u, o, r)
        });
        let vort = &vorticity[..];
        x.run("E", k, pv_vertex, |r, o| {
            dispatch::pv_vertex(backend, mesh, h, vort, f_vertex, o, r)
        });
    }
    let (vort, pvv) = (&vorticity[..], &pv_vertex[..]);
    x.run("A3", k, vorticity_cell, |r, o| {
        dispatch::vorticity_cell(backend, mesh, kc, vort, o, r)
    });
    x.run("F", k, pv_cell, |r, o| {
        dispatch::pv_cell(backend, mesh, kc, pvv, o, r)
    });
    let (pvc, apvm) = (&pv_cell[..], config.apvm_factor);
    if backend == KernelBackend::Simd {
        x.run2("H1G", k, v, pv_edge, |r, vo, pe| {
            simd::tangential_pv_edge(mesh, kc, k, apvm, dt, pvv, pvc, u, vo, pe, r)
        });
    } else {
        x.run("H1", k, v, |r, o| {
            dispatch::tangential_velocity(backend, mesh, u, o, r)
        });
        let v = &v[..];
        x.run("G", k, pv_edge, |r, o| {
            dispatch::pv_edge(backend, mesh, kc, apvm, dt, pvv, pvc, u, v, o, r)
        });
    }
}

/// `compute_tend` plus the tracer tendencies, the fixed forcing and
/// `enforce_boundary_edge`: the stage tendencies of the state `(h, u,
/// tracers)`, whose diagnostics are `d`.
#[allow(clippy::too_many_arguments)]
fn compute_tend(
    x: &mut Exec,
    env: Env,
    h: &[f64],
    u: &[f64],
    tracers: &[Vec<f64>],
    d: &Diagnostics,
    forcing: Option<&Tendencies>,
    del4: &mut Del4,
    tend: &mut Tendencies,
) {
    let Env {
        mesh,
        config,
        kc,
        b,
        ..
    } = env;
    let (backend, k) = (config.kernel_backend, h.len() / mesh.n_cells());
    let h_edge = &d.h_edge[..];
    x.run("A1", k, &mut tend.tend_h, |r, o| {
        dispatch::tend_h(backend, mesh, kc, u, h_edge, o, r)
    });
    if config.advection_only {
        // Williamson TC1 holds the wind fixed.
        tend.tend_u.fill(0.0);
    } else {
        let (g, pv_edge, ke) = (config.gravity, &d.pv_edge, &d.ke);
        x.run("B1", k, &mut tend.tend_u, |r, o| {
            dispatch::tend_u(backend, mesh, kc, g, pv_edge, u, h_edge, ke, h, b, o, r)
        });
        let (div, vort) = (&d.divergence, &d.vorticity);
        if config.del2_viscosity != 0.0 {
            let nu = config.del2_viscosity;
            x.run("C1", k, &mut tend.tend_u, |r, o| {
                dispatch::tend_u_del2(backend, mesh, kc, nu, div, vort, o, r)
            });
        }
        if config.del4_viscosity != 0.0 {
            // Chained C1: lap(u) from the div/vorticity diagnostics, then
            // the divergence/curl of that Laplacian. It has no single
            // Table-I label, so it is timed as a unit.
            let nu = config.del4_viscosity;
            let Del4 {
                lap,
                div_lap,
                vort_lap,
            } = del4;
            x.op("del4", |t| {
                t.run(k, lap, |r, o| {
                    dispatch::lap_u(backend, mesh, kc, div, vort, o, r)
                });
                let lap = &lap[..];
                t.run(k, div_lap, |r, o| {
                    dispatch::divergence(backend, mesh, kc, lap, o, r)
                });
                t.run(k, vort_lap, |r, o| {
                    dispatch::vorticity(backend, mesh, kc, lap, o, r)
                });
                let (dl, vl) = (&div_lap[..], &vort_lap[..]);
                t.run(k, &mut tend.tend_u, |r, o| {
                    dispatch::tend_u_del4(backend, mesh, kc, nu, dl, vl, o, r)
                });
            });
        }
    }
    for (out, hq) in tend.tend_tracers.iter_mut().zip(tracers) {
        x.run("T1", k, out, |r, o| {
            dispatch::tend_tracer(backend, mesh, kc, u, h_edge, h, hq, o, r)
        });
    }
    if let Some(f) = forcing {
        // Pattern F1: an exact +1.0-weighted accumulate.
        x.op("F1", |t| {
            t.run(k, &mut tend.tend_h, |r, o| {
                simd::accumulate(k, &f.tend_h, 1.0, o, r)
            });
            t.run(k, &mut tend.tend_u, |r, o| {
                simd::accumulate(k, &f.tend_u, 1.0, o, r)
            });
        });
    }
    x.run("X1", k, &mut tend.tend_u, |r, o| {
        simd::enforce_boundary(mesh, k, o, r)
    });
}

/// Diagnostics and stage tendencies of one `(h, u)` pair (no tracers, no
/// forcing) on a one-part team: the first half of an RK stage.
#[allow(clippy::too_many_arguments)]
pub fn stage_tendencies(
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    h: &[f64],
    u: &[f64],
    b: &[f64],
    f_vertex: &[f64],
    dt: f64,
) -> (Diagnostics, Tendencies) {
    let env = Env {
        mesh,
        config,
        kc,
        b,
        f_vertex,
        dt,
    };
    let k = h.len() / mesh.n_cells();
    let x = &mut Exec::inline();
    let mut diag = Diagnostics::with_lanes(mesh, k);
    let mut tend = Tendencies::with_lanes(mesh, k, 0);
    solve_diagnostics(x, env, h, u, &mut diag);
    let del4 = &mut Del4::new(mesh, config, k);
    compute_tend(x, env, h, u, &[], &diag, None, del4, &mut tend);
    (diag, tend)
}

/// [`solve_diagnostics`] on a one-part team (what
/// [`crate::kernels::compute_solve_diagnostics_backend`] runs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_diagnostics_inline(
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    h: &[f64],
    u: &[f64],
    f_vertex: &[f64],
    dt: f64,
    diag: &mut Diagnostics,
) {
    let env = Env {
        mesh,
        config,
        kc,
        b: &[],
        f_vertex,
        dt,
    };
    solve_diagnostics(&mut Exec::inline(), env, h, u, diag);
}

/// The fixed forcing that holds a test case's background state in discrete
/// equilibrium: `F = −N(background)` where `N` is the model's own tendency
/// operator (same kernels, same backend, same `dt` for the APVM term), on
/// `k` lanes that all carry the single-lane forcing. With `F` added to
/// every stage, the unperturbed background is a bitwise fixed point — each
/// stage tendency is `a + (−a) = 0.0` exactly — so only the superposed
/// anomaly evolves. Distributed ranks compute it on their local mesh: the
/// analytic background samples identically at the same points and the halo
/// covers the stencil chain, so owned forcing entries match the global
/// computation bit for bit.
fn compute_equilibrium_forcing(
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    test_case: &TestCase,
    b: &[f64],
    f_vertex: &[f64],
    dt: f64,
) -> Tendencies {
    let bg = test_case.background_state(mesh);
    let (_, tend) = stage_tendencies(mesh, config, kc, &bg.h, &bg.u, b, f_vertex, dt);
    let k = config.n_layers;
    let lanes = |src: &[f64]| -> Vec<f64> {
        src.iter()
            .flat_map(|&x| std::iter::repeat_n(-x, k))
            .collect()
    };
    Tendencies {
        tend_h: lanes(&tend.tend_h),
        tend_u: lanes(&tend.tend_u),
        tend_tracers: Vec::new(),
    }
}

/// Stage scratch reused across steps (no per-step allocation).
struct Work {
    /// Stage tendencies.
    tend: Tendencies,
    /// Provisional substep state.
    provis: State,
    /// Accumulated (quadrature) state.
    acc: State,
    del4: Del4,
}

/// A complete shallow-water simulation of `config.n_layers` independent
/// layers on one mesh, stepped on a worker team.
pub struct ShallowWaterModel {
    /// The mesh being integrated.
    pub mesh: Arc<Mesh>,
    /// Numerical options (`n_layers` is the lane count of every field).
    pub config: ModelConfig,
    /// The Williamson scenario this run was initialized from.
    pub test_case: TestCase,
    /// Prognostic state, all lanes. Lane 0 is the unperturbed scenario and
    /// lane `l > 0` starts from it scaled by
    /// [`crate::layers::layer_h_scale`]`(l)`.
    pub state: State,
    /// Current diagnostics (consistent with `state`), all lanes.
    pub diag: Diagnostics,
    /// Reconstructed cell-center velocities (single-layer runs only: the
    /// reconstruction is an output product, skipped and left empty for
    /// `k > 1`).
    pub recon: Reconstruction,
    /// Bottom topography at cells (single-lane, shared by every layer).
    pub b: Vec<f64>,
    /// Coriolis parameter at vertices (single-lane).
    pub f_vertex: Vec<f64>,
    /// Velocity-reconstruction coefficients (empty for `k > 1`).
    pub coeffs: ReconstructCoeffs,
    /// Precomputed fused kernel coefficients (read by the fused and simd
    /// backends of `config.kernel_backend`). Shared so multi-tenant servers
    /// can reuse one table across concurrent models on the same mesh and
    /// config.
    pub kernel_coeffs: Arc<KernelCoeffs>,
    /// Fixed forcing tendency for forced cases (Williamson 4), the same on
    /// every lane: the discrete negation of the background jet's tendency,
    /// computed once at init so the unperturbed jet is a bitwise
    /// equilibrium.
    pub forcing: Option<Tendencies>,
    work: Work,
    x: Exec,
    /// Cached single-lane view of lane 0 (state and diagnostics), kept for
    /// `k > 1` only; single-layer runs read `state`/`diag` directly.
    layer0: Option<(State, Diagnostics)>,
    /// Model time in seconds.
    pub time: f64,
    /// Time-step size in seconds.
    pub dt: f64,
}

impl ShallowWaterModel {
    /// Initialize a model from a test case. `dt = None` picks the
    /// mesh-dependent stable default.
    pub fn new(mesh: Arc<Mesh>, config: ModelConfig, test_case: TestCase, dt: Option<f64>) -> Self {
        Self::new_shared(mesh, config, test_case, dt, None)
    }

    /// Like [`ShallowWaterModel::new`], but reuse an already-built
    /// coefficient table (it must have been built for this exact mesh and
    /// config). `None` builds a fresh table. The model starts on a
    /// one-part team; see [`ShallowWaterModel::with_team`].
    ///
    /// # Panics
    /// If `config.n_layers` is 0, or above 1 on a backend other than simd.
    pub fn new_shared(
        mesh: Arc<Mesh>,
        config: ModelConfig,
        test_case: TestCase,
        dt: Option<f64>,
        shared_coeffs: Option<Arc<KernelCoeffs>>,
    ) -> Self {
        let k = config.n_layers;
        assert!(k >= 1, "n_layers must be at least 1");
        assert!(
            k == 1 || config.kernel_backend == KernelBackend::Simd,
            "n_layers > 1 requires the simd kernel backend"
        );
        let flat = test_case.initial_state_with_tracers(&mesh, config.n_tracers);
        let state = if k == 1 {
            flat
        } else {
            State::broadcast(&mesh, &flat, k)
        };
        let b = test_case.topography(&mesh);
        let f_vertex = test_case.coriolis_vertex(&mesh);
        let kernel_coeffs =
            shared_coeffs.unwrap_or_else(|| Arc::new(KernelCoeffs::build(&mesh, &config)));
        let dt = dt.unwrap_or_else(|| ModelConfig::suggested_dt(&mesh));
        let forcing = test_case.needs_forcing().then(|| {
            compute_equilibrium_forcing(
                &mesh,
                &config,
                &kernel_coeffs,
                &test_case,
                &b,
                &f_vertex,
                dt,
            )
        });
        let n_tracers = state.n_tracers();
        let (coeffs, recon) = if k == 1 {
            (
                ReconstructCoeffs::build(&mesh),
                Reconstruction::zeros(&mesh),
            )
        } else {
            (
                ReconstructCoeffs { coeffs: Vec::new() },
                Reconstruction::default(),
            )
        };
        let mut m = ShallowWaterModel {
            work: Work {
                tend: Tendencies::with_lanes(&mesh, k, n_tracers),
                provis: State::with_lanes(&mesh, k, n_tracers),
                acc: State::with_lanes(&mesh, k, n_tracers),
                del4: Del4::new(&mesh, &config, k),
            },
            diag: Diagnostics::with_lanes(&mesh, k),
            recon,
            coeffs,
            layer0: (k > 1).then(|| {
                (
                    State::zeros_with_tracers(&mesh, n_tracers),
                    Diagnostics::zeros(&mesh),
                )
            }),
            x: Exec::inline(),
            state,
            forcing,
            b,
            f_vertex,
            kernel_coeffs,
            config,
            test_case,
            time: 0.0,
            dt,
            mesh,
        };
        m.refresh_diagnostics();
        m.reconstruct();
        m
    }

    /// Step on `team` from now on. Its parts `0..host_parts` count as the
    /// host's for the `hybrid.split.*` timers; the rest as the
    /// accelerator's.
    pub fn with_team(mut self, team: Team, host_parts: usize) -> Self {
        self.x.team = team;
        self.x.host_parts = host_parts;
        self
    }

    /// Route this model's `hybrid.*` telemetry (per-kernel timers keyed by
    /// Table-I label, per-device split timers, step spans) into `rec`.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.x.rec = rec;
        self
    }

    /// Route this model's `hybrid.*` telemetry into `rec`.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.x.rec = rec;
    }

    /// Number of vertical layers (lanes per entity).
    pub fn n_layers(&self) -> usize {
        self.config.n_layers
    }

    /// Lane 0 as a single-lane state: `state` itself for single-layer runs.
    pub fn layer0(&self) -> &State {
        self.layer0.as_ref().map_or(&self.state, |(s, _)| s)
    }

    /// Lane 0's diagnostics as single-lane fields.
    pub fn layer0_diag(&self) -> &Diagnostics {
        self.layer0.as_ref().map_or(&self.diag, |(_, d)| d)
    }

    /// Extract any layer as a single-lane [`State`].
    pub fn extract_layer(&self, l: usize) -> State {
        self.state.extract_layer(&self.mesh, l)
    }

    /// Advance one RK-4 step.
    pub fn step(&mut self) {
        self.step_with(|_| {});
    }

    /// Advance one RK-4 step, calling `halo` on the provisional state after
    /// each provisional update and on the new state after the last stage,
    /// each time before its diagnostics are computed: the hook a
    /// distributed rank fills its halo entries in.
    pub fn step_with(&mut self, mut halo: impl FnMut(&mut State)) {
        let (rec, stage_spans) = (self.x.rec.clone(), self.x.spans());
        let _step = rec
            .is_enabled()
            .then(|| rec.span_timed("measured", "step", "hybrid.step_seconds"));
        let env = Env {
            mesh: &self.mesh,
            config: &self.config,
            kc: &self.kernel_coeffs,
            b: &self.b,
            f_vertex: &self.f_vertex,
            dt: self.dt,
        };
        let (x, state, diag) = (&mut self.x, &mut self.state, &mut self.diag);
        let Work {
            tend,
            provis,
            acc,
            del4,
        } = &mut self.work;
        let (k, dt) = (self.config.n_layers, self.dt);
        acc.copy_from(state);
        provis.copy_from(state);
        // `stage` is the RK stage number, not just an index into RK_SUBSTEP.
        #[allow(clippy::needless_range_loop)]
        for stage in 0..4 {
            let _sub = stage_spans.then(|| rec.span("measured", &format!("rk.stage{stage}")));
            let forcing = self.forcing.as_ref();
            let (h, u, tracers) = (&provis.h, &provis.u, &provis.tracers);
            compute_tend(x, env, h, u, tracers, diag, forcing, del4, tend);
            if stage < 3 {
                let (coef, weight) = (RK_SUBSTEP[stage] * dt, RK_WEIGHTS[stage] * dt);
                advance(x, k, state, tend, coef, weight, provis, acc);
                halo(provis);
                solve_diagnostics(x, env, &provis.h, &provis.u, diag);
            } else {
                accumulate(x, k, tend, RK_WEIGHTS[stage] * dt, acc);
                // The accumulator holds the new state: swap it in instead
                // of copying it (the next step rebuilds `acc`).
                std::mem::swap(state, acc);
                halo(state);
                solve_diagnostics(x, env, &state.h, &state.u, diag);
                if k == 1 {
                    reconstruct(x, env.mesh, &self.coeffs, &state.u, &mut self.recon);
                }
            }
        }
        self.time += dt;
        self.refresh_layer0();
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// [`reconstruct`] the current state, for single-layer runs.
    fn reconstruct(&mut self) {
        if self.config.n_layers == 1 {
            let (mesh, u) = (&self.mesh, &self.state.u);
            reconstruct(&mut self.x, mesh, &self.coeffs, u, &mut self.recon);
        }
    }

    fn refresh_layer0(&mut self) {
        if let Some((s, d)) = &mut self.layer0 {
            self.state.extract_layer_into(&self.mesh, 0, s);
            self.diag.extract_layer_into(self.config.n_layers, 0, d);
        }
    }

    /// Change the step size mid-run. The diagnostics (and any forcing) are
    /// refreshed because the APVM upwinding inside `pv_edge` — and hence
    /// the equilibrium forcing derived from it — depends on `dt`.
    pub fn set_dt(&mut self, dt: f64) {
        if dt == self.dt {
            return;
        }
        self.dt = dt;
        self.refresh_diagnostics();
        if self.forcing.is_some() {
            self.forcing = Some(compute_equilibrium_forcing(
                &self.mesh,
                &self.config,
                &self.kernel_coeffs,
                &self.test_case,
                &self.b,
                &self.f_vertex,
                dt,
            ));
        }
    }

    /// Recompute the diagnostics (and the lane-0 view) from the current
    /// prognostic state (needed after externally mutating `state` or `dt`).
    pub fn refresh_diagnostics(&mut self) {
        let env = Env {
            mesh: &self.mesh,
            config: &self.config,
            kc: &self.kernel_coeffs,
            b: &self.b,
            f_vertex: &self.f_vertex,
            dt: self.dt,
        };
        let (h, u) = (&self.state.h, &self.state.u);
        solve_diagnostics(&mut self.x, env, h, u, &mut self.diag);
        self.refresh_layer0();
    }

    /// Recompute everything derived from the state after it was replaced
    /// wholesale (a checkpoint restore).
    pub(crate) fn refresh_after_restore(&mut self) {
        self.refresh_diagnostics();
        self.reconstruct();
    }

    /// One CFL-monitored adaptive step: measure the Courant number of the
    /// current state, rescale `dt` toward `cfl_target` when outside the
    /// relative `band` around it (growth/shrink clamped to [½, 2]× per
    /// step), then advance. Returns the Courant number that was measured —
    /// the caller feeds it to the `InvariantMonitor` gauge so a CFL
    /// violation that adaptation cannot hold down still raises an alert.
    pub fn step_adaptive(&mut self, cfl_target: f64, band: f64) -> f64 {
        let c = self.max_courant();
        if c > 0.0 {
            let lo = cfl_target * (1.0 - band);
            let hi = cfl_target * (1.0 + band);
            if c < lo || c > hi {
                let scale = (cfl_target / c).clamp(0.5, 2.0);
                self.set_dt(self.dt * scale);
            }
        }
        self.step();
        c
    }

    /// Number of steps needed to reach `days` of simulated time.
    pub fn steps_for_days(&self, days: f64) -> usize {
        (days * mpas_geom::SECONDS_PER_DAY / self.dt).ceil() as usize
    }

    /// Total fluid mass `∫ h dA` of layer 0 (exactly conserved).
    pub fn total_mass(&self) -> f64 {
        self.total_mass_layer(0)
    }

    /// Total fluid mass `∫ h dA` of layer `l`.
    pub fn total_mass_layer(&self, l: usize) -> f64 {
        let k = self.config.n_layers;
        (0..self.mesh.n_cells())
            .map(|i| self.state.h[i * k + l] * self.mesh.area_cell[i])
            .sum()
    }

    /// Total mass of tracer `t` in layer 0: `∫ h·q dA` (conserved to
    /// rounding by the flux-form T1 kernel).
    pub fn total_tracer(&self, t: usize) -> f64 {
        let tr = &self.layer0().tracers[t];
        (0..self.mesh.n_cells())
            .map(|i| tr[i] * self.mesh.area_cell[i])
            .sum()
    }

    /// Total energy of layer 0: `∫ [h·K + ½ g ((h+b)² − b²)] dA`.
    pub fn total_energy(&self) -> f64 {
        let (g, s, d) = (self.config.gravity, self.layer0(), self.layer0_diag());
        (0..self.mesh.n_cells())
            .map(|i| {
                let (h, b) = (s.h[i], self.b[i]);
                (h * d.ke[i] + 0.5 * g * ((h + b).powi(2) - b * b)) * self.mesh.area_cell[i]
            })
            .sum()
    }

    /// Potential enstrophy of layer 0: `∫ ½ h_v q_v² dA_v`.
    pub fn potential_enstrophy(&self) -> f64 {
        let (mesh, s, d) = (&self.mesh, self.layer0(), self.layer0_diag());
        (0..mesh.n_vertices())
            .map(|v| {
                let mut hv = 0.0;
                for k in 0..3 {
                    hv +=
                        mesh.kite_areas_on_vertex[v][k] * s.h[mesh.cells_on_vertex[v][k] as usize];
                }
                hv /= mesh.area_triangle[v];
                0.5 * hv * d.pv_vertex[v].powi(2) * mesh.area_triangle[v]
            })
            .sum()
    }

    /// Layer-0 thickness error norms against the test case's analytic
    /// solution at the current model time (steady cases compare to the
    /// initial field; Case 1 to the rigidly advected bell).
    pub fn h_error_norms(&self) -> ErrorNorms {
        let reference: Vec<f64> = (0..self.mesh.n_cells())
            .map(|i| {
                self.test_case
                    .reference_thickness_at(self.mesh.x_cell[i], self.time)
            })
            .collect();
        ErrorNorms::compute(&self.layer0().h, &reference, &self.mesh.area_cell)
    }

    /// Layer-0 maximum Courant number over edges, using the external
    /// gravity-wave speed `|u| + sqrt(g h_edge)` — the stability monitor
    /// for the explicit RK-4 stepping.
    pub fn max_courant(&self) -> f64 {
        let (g, u, d) = (self.config.gravity, &self.layer0().u, self.layer0_diag());
        (0..self.mesh.n_edges())
            .map(|e| {
                let c = u[e].abs() + (g * d.h_edge[e].max(0.0)).sqrt();
                c * self.dt / self.mesh.dc_edge[e]
            })
            .fold(0.0f64, f64::max)
    }

    /// Layer-0 total height field `h + b` (what the paper's Fig. 5 plots).
    pub fn total_height(&self) -> Vec<f64> {
        self.layer0()
            .h
            .iter()
            .zip(&self.b)
            .map(|(&h, &b)| h + b)
            .collect()
    }
}

/// X2+X4 and X3+X5: `provis = base + coef·tend` and `acc += weight·tend` in
/// one pass over the tendencies (tracer fields included).
#[allow(clippy::too_many_arguments)]
fn advance(
    x: &mut Exec,
    k: usize,
    base: &State,
    tend: &Tendencies,
    coef: f64,
    weight: f64,
    provis: &mut State,
    acc: &mut State,
) {
    let pass = |p: &mut [f64], a: &mut [f64], base: &[f64], t: &[f64], r: Range<usize>| {
        simd::axpy_accumulate(k, base, t, coef, weight, p, a, r)
    };
    let (h, u) = ((&base.h, &tend.tend_h), (&base.u, &tend.tend_u));
    x.run2("X2X4", k, &mut provis.h, &mut acc.h, |r, p, a| {
        pass(p, a, h.0, h.1, r)
    });
    x.run2("X3X5", k, &mut provis.u, &mut acc.u, |r, p, a| {
        pass(p, a, u.0, u.1, r)
    });
    let fields = provis.tracers.iter_mut().zip(acc.tracers.iter_mut());
    for (((p, a), b), t) in fields.zip(&base.tracers).zip(&tend.tend_tracers) {
        x.team.run2(k, p, a, |r, p, a| pass(p, a, b, t, r));
    }
}

/// `mpas_reconstruct` (patterns A4, X6): single-lane cell-center velocity
/// vectors from `u` and their zonal/meridional split.
fn reconstruct(
    x: &mut Exec,
    mesh: &Mesh,
    coeffs: &ReconstructCoeffs,
    u: &[f64],
    recon: &mut Reconstruction,
) {
    let Reconstruction {
        ux,
        uy,
        uz,
        zonal,
        meridional,
    } = recon;
    x.op("A4", |t| {
        t.run3(1, ux, uy, uz, |r, x, y, z| {
            ops::reconstruct_xyz(mesh, coeffs, u, x, y, z, r)
        })
    });
    let (ux, uy, uz) = (&ux[..], &uy[..], &uz[..]);
    x.op("X6", |t| {
        t.run2(1, zonal, meridional, |r, zo, me| {
            ops::zonal_meridional(mesh, ux, uy, uz, zo, me, r)
        })
    });
}

/// X4 and X5: `acc += weight·tend`, field by field.
fn accumulate(x: &mut Exec, k: usize, tend: &Tendencies, weight: f64, acc: &mut State) {
    let pass = |a: &mut [f64], t: &[f64], r: Range<usize>| simd::accumulate(k, t, weight, a, r);
    x.run("X4", k, &mut acc.h, |r, a| pass(a, &tend.tend_h, r));
    x.run("X5", k, &mut acc.u, |r, a| pass(a, &tend.tend_u, r));
    for (a, t) in acc.tracers.iter_mut().zip(&tend.tend_tracers) {
        x.team.run(k, a, |r, a| pass(a, t, r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model(tc: TestCase) -> ShallowWaterModel {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        ShallowWaterModel::new(mesh, ModelConfig::default(), tc, None)
    }

    #[test]
    fn mass_is_conserved_to_machine_precision() {
        let mut m = small_model(TestCase::Case5);
        let m0 = m.total_mass();
        m.run_steps(10);
        let m1 = m.total_mass();
        let drift = (m1 - m0) / m0;
        assert!(drift.abs() < 1e-13, "mass drift {drift:e}");
    }

    #[test]
    fn case2_stays_near_steady_state() {
        let mut m = small_model(TestCase::Case2 { alpha: 0.0 });
        m.run_steps(20);
        let norms = m.h_error_norms();
        // Coarse mesh: discretization error dominates, but the state must
        // remain close to the analytic steady flow after 20 steps.
        assert!(norms.l2 < 5e-3, "l2 = {}", norms.l2);
        assert!(norms.linf < 2e-2, "linf = {}", norms.linf);
    }

    #[test]
    fn energy_drift_is_small() {
        let mut m = small_model(TestCase::Case6);
        let e0 = m.total_energy();
        m.run_steps(20);
        let e1 = m.total_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 1e-6,
            "energy drift {}",
            (e1 - e0) / e0
        );
    }

    #[test]
    fn enstrophy_drift_is_small() {
        let mut m = small_model(TestCase::Case6);
        let s0 = m.potential_enstrophy();
        m.run_steps(20);
        let s1 = m.potential_enstrophy();
        assert!(
            ((s1 - s0) / s0).abs() < 1e-4,
            "enstrophy drift {}",
            (s1 - s0) / s0
        );
    }

    #[test]
    fn case5_total_height_spans_mountain() {
        let m = small_model(TestCase::Case5);
        let th = m.total_height();
        let max = th.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min = th.iter().fold(f64::MAX, |a, &b| a.min(b));
        // Analytic range: gh0/g = 5960 m at the equator down to
        // 5960 − (aΩu0 + u0²/2)/g ≈ 4992 m at the poles.
        assert!(max < 6000.0 && min > 4950.0, "range [{min},{max}]");
    }

    #[test]
    fn solution_remains_finite_under_long_run() {
        let mut m = small_model(TestCase::Case5);
        m.run_steps(50);
        assert!(m.state.h.iter().all(|h| h.is_finite() && *h > 0.0));
        assert!(m.state.u.iter().all(|u| u.is_finite() && u.abs() < 300.0));
    }

    #[test]
    fn case4_background_is_a_bitwise_equilibrium() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m =
            ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case4, None);
        assert!(m.forcing.is_some());
        // Replace the perturbed initial state with the bare background:
        // under the equilibrium forcing it must not move at all.
        m.state = TestCase::Case4.background_state(&mesh);
        m.refresh_diagnostics();
        let before = m.state.clone();
        m.run_steps(3);
        assert_eq!(m.state.max_abs_diff(&before), 0.0, "background drifted");
    }

    #[test]
    fn case4_anomaly_actually_evolves() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m = ShallowWaterModel::new(mesh, ModelConfig::default(), TestCase::Case4, None);
        let before = m.state.clone();
        let mass0 = m.total_mass();
        m.run_steps(5);
        assert!(m.state.max_abs_diff(&before) > 1e-3, "anomaly frozen");
        let drift = (m.total_mass() - mass0) / mass0;
        assert!(drift.abs() < 1e-13, "mass drift {drift:e}");
    }

    #[test]
    fn tracer_mass_is_conserved() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let config = ModelConfig {
            n_tracers: 2,
            ..Default::default()
        };
        let mut m = ShallowWaterModel::new(mesh, config, TestCase::Case5, None);
        let t0: Vec<f64> = (0..2).map(|k| m.total_tracer(k)).collect();
        m.run_steps(10);
        for (k, &mass0) in t0.iter().enumerate() {
            let drift = (m.total_tracer(k) - mass0) / mass0;
            assert!(drift.abs() < 1e-12, "tracer {k} drift {drift:e}");
        }
    }

    #[test]
    fn constant_tracer_tracks_thickness() {
        // Tracer 0 starts as q == 1 (hq == h); advection must keep q ~= 1.
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let config = ModelConfig {
            n_tracers: 1,
            ..Default::default()
        };
        let mut m = ShallowWaterModel::new(mesh, config, TestCase::Case5, None);
        m.run_steps(10);
        for i in 0..m.mesh.n_cells() {
            let q = m.state.tracers[0][i] / m.state.h[i];
            assert!((q - 1.0).abs() < 1e-11, "cell {i}: q = {q}");
        }
    }

    #[test]
    fn adaptive_stepping_holds_the_target_cfl() {
        let mesh = Arc::new(mpas_mesh::generate(3, 0));
        let mut m = ShallowWaterModel::new(mesh, ModelConfig::default(), TestCase::Case5, None);
        // Start far too timid: dt at a tenth of the stable default.
        let dt0 = m.dt * 0.1;
        m.set_dt(dt0);
        let target = 0.2;
        let mut last = 0.0;
        for _ in 0..12 {
            last = m.step_adaptive(target, 0.1);
        }
        assert!(m.dt > dt0 * 2.0, "dt never grew: {} vs {dt0}", m.dt);
        assert!(
            (last - target).abs() < 0.5 * target,
            "courant {last} far from target"
        );
        assert!(m.state.h.iter().all(|h| h.is_finite() && *h > 0.0));
    }

    #[test]
    fn set_dt_refreshes_the_apvm_diagnostics() {
        let mesh = Arc::new(mpas_mesh::generate(2, 0));
        let mut m = ShallowWaterModel::new(mesh, ModelConfig::default(), TestCase::Case5, None);
        let pv_before = m.diag.pv_edge.clone();
        m.set_dt(m.dt * 2.0);
        assert!(m.diag.pv_edge != pv_before, "pv_edge stale after dt change");
    }

    #[test]
    fn steps_for_days_roundtrip() {
        let m = small_model(TestCase::Case5);
        let steps = m.steps_for_days(1.0);
        assert!((steps as f64 * m.dt - 86400.0).abs() < m.dt);
    }
}
