//! The six kernels of Algorithm 1.
//!
//! Each Table-I pattern instance is a free function in [`ops`] taking an
//! explicit output **range**, so the executors can slice one pattern
//! across devices (the paper's "adjustable part"). The one composition of
//! them into Algorithm 1 is [`crate::model::ShallowWaterModel`]'s step;
//! [`compute_solve_diagnostics_backend`] runs its diagnostics half alone.
//!
//! [`scatter`] holds the original edge-order (irregular-reduction) forms of
//! the class-A/C reductions — the Fig. 6 "Baseline"/naive-OpenMP story.
//! [`fused`] holds the precomputed-coefficient fast path driven by
//! [`crate::coeffs::KernelCoeffs`]. [`simd`] is the third tier
//! (DESIGN.md §14): the fused arithmetic replayed per vertical-layer lane
//! with explicit SIMD inner loops — at one layer it is bit-identical to
//! the fused tier, which is how [`dispatch`] can offer it to every
//! executor behind [`crate::config::KernelBackend`]. [`dispatch`] selects
//! the tier per kernel and per range (what the team slices across parts).

pub mod dispatch;
pub mod fused;
pub mod ops;
pub mod scatter;
pub mod simd;

use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use crate::state::Diagnostics;
use mpas_mesh::Mesh;

/// `compute_solve_diagnostics` on `backend`: refresh every diagnostic field
/// from the prognostic pair `(h, u)` with the model's own kernel sequence on
/// a one-part team. `dt` enters only through the APVM upwinding of
/// `pv_edge`; the length of `h` sets the lane count.
#[allow(clippy::too_many_arguments)]
pub fn compute_solve_diagnostics_backend(
    backend: KernelBackend,
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    h: &[f64],
    u: &[f64],
    f_vertex: &[f64],
    dt: f64,
    diag: &mut Diagnostics,
) {
    let config = ModelConfig {
        kernel_backend: backend,
        ..*config
    };
    crate::model::solve_diagnostics_inline(mesh, &config, kc, h, u, f_vertex, dt, diag);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::stage_tendencies;
    use crate::state::Tendencies;

    fn setup() -> (Mesh, ModelConfig, Vec<f64>) {
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig {
            kernel_backend: KernelBackend::Scalar,
            ..Default::default()
        };
        let f_vertex: Vec<f64> = (0..mesh.n_vertices())
            .map(|v| 2.0 * mpas_geom::OMEGA * mesh.x_vertex[v].z)
            .collect();
        (mesh, config, f_vertex)
    }

    /// Seed-kernel diagnostics and stage tendencies of `(h, u)`.
    #[allow(clippy::too_many_arguments)]
    fn tendencies(
        mesh: &Mesh,
        config: &ModelConfig,
        h: &[f64],
        u: &[f64],
        b: &[f64],
        f_vertex: &[f64],
        dt: f64,
    ) -> (Diagnostics, Tendencies) {
        let kc = KernelCoeffs::build(mesh, config);
        stage_tendencies(mesh, config, &kc, h, u, b, f_vertex, dt)
    }

    fn solve_diagnostics(
        mesh: &Mesh,
        config: &ModelConfig,
        h: &[f64],
        u: &[f64],
        f_vertex: &[f64],
        dt: f64,
        diag: &mut Diagnostics,
    ) {
        let kc = KernelCoeffs::build(mesh, config);
        compute_solve_diagnostics_backend(
            KernelBackend::Scalar,
            mesh,
            config,
            &kc,
            h,
            u,
            f_vertex,
            dt,
            diag,
        );
    }

    #[test]
    fn mass_tendency_integrates_to_zero() {
        // ∮ tend_h dA = 0 exactly (flux telescoping): discrete conservation.
        let (mesh, config, f_vertex) = setup();
        let h: Vec<f64> = (0..mesh.n_cells())
            .map(|i| 1000.0 + (i as f64).sin())
            .collect();
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| (e as f64 * 0.1).cos())
            .collect();
        let b = vec![0.0; mesh.n_cells()];
        let (_, tend) = tendencies(&mesh, &config, &h, &u, &b, &f_vertex, 100.0);
        let total: f64 = (0..mesh.n_cells())
            .map(|i| tend.tend_h[i] * mesh.area_cell[i])
            .sum();
        let scale: f64 = (0..mesh.n_cells())
            .map(|i| tend.tend_h[i].abs() * mesh.area_cell[i])
            .sum();
        assert!(total.abs() < 1e-12 * scale.max(1.0), "total {total}");
    }

    #[test]
    fn curl_of_discrete_gradient_vanishes() {
        // u_e = (φ(c2) − φ(c1))/dc is a discrete gradient; its circulation
        // around every dual triangle telescopes to exactly zero.
        let (mesh, _config, _f) = setup();
        let phi: Vec<f64> = (0..mesh.n_cells())
            .map(|i| (mesh.x_cell[i].z * 3.0).sin() * 1e5)
            .collect();
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| {
                let [c1, c2] = mesh.cells_on_edge[e];
                (phi[c2 as usize] - phi[c1 as usize]) / mesh.dc_edge[e]
            })
            .collect();
        let mut vort = vec![0.0; mesh.n_vertices()];
        ops::vorticity(&mesh, &u, &mut vort, 0..mesh.n_vertices());
        let worst = vort.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        // Scale: |u|/dv ~ 1e-1; exact cancellation leaves rounding only.
        assert!(worst < 1e-12, "worst vorticity {worst}");
    }

    #[test]
    fn ke_is_nonnegative_and_zero_for_rest() {
        let (mesh, _c, _f) = setup();
        let mut ke = vec![0.0; mesh.n_cells()];
        let u0 = vec![0.0; mesh.n_edges()];
        ops::ke(&mesh, &u0, &mut ke, 0..mesh.n_cells());
        assert!(ke.iter().all(|&k| k == 0.0));
        let u: Vec<f64> = (0..mesh.n_edges()).map(|e| (e as f64).sin()).collect();
        ops::ke(&mesh, &u, &mut ke, 0..mesh.n_cells());
        assert!(ke.iter().all(|&k| k >= 0.0));
        assert!(ke.iter().any(|&k| k > 0.0));
    }

    #[test]
    fn state_at_rest_stays_at_rest_without_topography() {
        // h = const, u = 0: all tendencies must vanish (well-balanced).
        let (mesh, config, f_vertex) = setup();
        let h = vec![1000.0; mesh.n_cells()];
        let u = vec![0.0; mesh.n_edges()];
        let b = vec![0.0; mesh.n_cells()];
        let (_, tend) = tendencies(&mesh, &config, &h, &u, &b, &f_vertex, 100.0);
        let wh = tend.tend_h.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let wu = tend.tend_u.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(wh == 0.0, "tend_h {wh}");
        assert!(wu < 1e-10, "tend_u {wu}");
    }

    #[test]
    fn lake_at_rest_is_balanced_with_topography() {
        // h + b = const with u = 0: the pressure gradient of h balances b.
        let (mesh, config, f_vertex) = setup();
        let b: Vec<f64> = (0..mesh.n_cells())
            .map(|i| 200.0 * (1.0 + mesh.x_cell[i].z))
            .collect();
        let h: Vec<f64> = b.iter().map(|&bi| 1000.0 - bi).collect();
        let u = vec![0.0; mesh.n_edges()];
        let (_, tend) = tendencies(&mesh, &config, &h, &u, &b, &f_vertex, 100.0);
        let wu = tend.tend_u.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(wu < 1e-9, "tend_u {wu}");
    }

    #[test]
    fn high_order_h_edge_close_to_midpoint_average_on_smooth_field() {
        let (mesh, _c, _f) = setup();
        let mut config = ModelConfig {
            kernel_backend: KernelBackend::Scalar,
            ..Default::default()
        };
        let h: Vec<f64> = (0..mesh.n_cells())
            .map(|i| 5000.0 + 100.0 * mesh.x_cell[i].z)
            .collect();
        let u = vec![0.0; mesh.n_edges()];
        let f_vertex = vec![0.0; mesh.n_vertices()];
        let mut d2 = Diagnostics::zeros(&mesh);
        config.high_order_h_edge = true;
        solve_diagnostics(&mesh, &config, &h, &u, &f_vertex, 1.0, &mut d2);
        let mut d1 = Diagnostics::zeros(&mesh);
        config.high_order_h_edge = false;
        solve_diagnostics(&mesh, &config, &h, &u, &f_vertex, 1.0, &mut d1);
        for e in 0..mesh.n_edges() {
            let rel = (d2.h_edge[e] - d1.h_edge[e]).abs() / d1.h_edge[e];
            assert!(rel < 1e-3, "edge {e} rel {rel}");
        }
        // And they are not identical (the correction really fires).
        assert!(d1.h_edge != d2.h_edge);
    }

    #[test]
    fn enforce_boundary_zeroes_masked_edges() {
        let (mut mesh, _c, _f) = setup();
        mesh.boundary_edge[3] = true;
        mesh.boundary_edge[17] = true;
        let mut tend_u = vec![1.0; mesh.n_edges()];
        ops::enforce_boundary(&mesh, &mut tend_u, 0..mesh.n_edges());
        assert_eq!(tend_u[3], 0.0);
        assert_eq!(tend_u[17], 0.0);
        assert_eq!(tend_u[4], 1.0);
    }
}
