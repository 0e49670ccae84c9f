//! Per-kernel backend selection for the range-sliced executors.
//!
//! The threaded and hybrid executors carve each Table-I pattern into
//! disjoint output ranges; every worker then needs "this kernel, on this
//! range, on the configured backend". Each function here is that one
//! decision: [`KernelBackend::Scalar`] runs the seed form in
//! [`super::ops`], [`KernelBackend::Fused`] the coefficient fast path in
//! [`super::fused`], and [`KernelBackend::Simd`] the vertical-batching
//! tier in [`super::simd`] on `k = out.len() / range.len()` lanes per
//! entity — which at `k = 1` is bit-identical to the fused tier
//! (DESIGN.md §14), so cross-executor equivalence holds per backend
//! without re-proving anything per executor. The scalar and fused tiers
//! are single-lane.
//!
//! Kernels with nothing to fuse (H1 tangential velocity, E vertex PV)
//! share one arithmetic across all three backends; they are dispatched
//! here anyway so a backend sweep exercises every kernel's simd entry
//! point.

use super::{fused, ops, simd};
use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use mpas_mesh::Mesh;
use std::ops::Range;

/// Lanes per entity of an output window over `range` (1 for an empty range).
fn lanes(out: &[f64], range: &Range<usize>) -> usize {
    if range.is_empty() {
        1
    } else {
        out.len() / range.len()
    }
}

/// A1 — thickness tendency on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_h(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    h_edge: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_h(mesh, u, h_edge, out, cells),
        KernelBackend::Fused => fused::tend_h(mesh, kc, u, h_edge, out, cells),
        KernelBackend::Simd => simd::tend_h(mesh, kc, lanes(out, &cells), u, h_edge, out, cells),
    }
}

/// T1 — tracer-mass tendency on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_tracer(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    h_edge: &[f64],
    h: &[f64],
    hq: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_tracer(mesh, u, h_edge, h, hq, out, cells),
        KernelBackend::Fused => fused::tend_tracer(mesh, kc, u, h_edge, h, hq, out, cells),
        KernelBackend::Simd => {
            simd::tend_tracer(mesh, kc, lanes(out, &cells), u, h_edge, h, hq, out, cells)
        }
    }
}

/// B2 — velocity divergence on the configured backend.
pub fn divergence(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::divergence(mesh, u, out, cells),
        KernelBackend::Fused => fused::divergence(mesh, kc, u, out, cells),
        KernelBackend::Simd => simd::divergence(mesh, kc, lanes(out, &cells), u, out, cells),
    }
}

/// A2 — kinetic energy on the configured backend.
pub fn ke(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::ke(mesh, u, out, cells),
        KernelBackend::Fused => fused::ke(mesh, kc, u, out, cells),
        KernelBackend::Simd => simd::ke(mesh, kc, lanes(out, &cells), u, out, cells),
    }
}

/// C2 — vertex vorticity on the configured backend.
pub fn vorticity(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    out: &mut [f64],
    vertices: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::vorticity(mesh, u, out, vertices),
        KernelBackend::Fused => fused::vorticity(mesh, kc, u, out, vertices),
        KernelBackend::Simd => simd::vorticity(mesh, kc, lanes(out, &vertices), u, out, vertices),
    }
}

/// A3 — kite-area average of vertex vorticity on the configured backend.
pub fn vorticity_cell(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    vorticity: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::vorticity_cell(mesh, vorticity, out, cells),
        KernelBackend::Fused => fused::vorticity_cell(mesh, kc, vorticity, out, cells),
        KernelBackend::Simd => {
            simd::kite_average(mesh, kc, lanes(out, &cells), vorticity, out, cells)
        }
    }
}

/// F — kite-area average of vertex PV on the configured backend.
pub fn pv_cell(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    pv_vertex: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::pv_cell(mesh, pv_vertex, out, cells),
        KernelBackend::Fused => fused::pv_cell(mesh, kc, pv_vertex, out, cells),
        KernelBackend::Simd => {
            simd::kite_average(mesh, kc, lanes(out, &cells), pv_vertex, out, cells)
        }
    }
}

/// E — vertex potential vorticity (never fused; the scalar and fused
/// backends share the seed form).
#[allow(clippy::too_many_arguments)]
pub fn pv_vertex(
    backend: KernelBackend,
    mesh: &Mesh,
    h: &[f64],
    vorticity: &[f64],
    f_vertex: &[f64],
    out: &mut [f64],
    vertices: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar | KernelBackend::Fused => {
            ops::pv_vertex(mesh, h, vorticity, f_vertex, out, vertices)
        }
        KernelBackend::Simd => simd::pv_vertex(
            mesh,
            lanes(out, &vertices),
            h,
            vorticity,
            f_vertex,
            out,
            vertices,
        ),
    }
}

/// G — edge PV with APVM upwinding on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn pv_edge(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    apvm_factor: f64,
    dt: f64,
    pv_vertex: &[f64],
    pv_cell: &[f64],
    u: &[f64],
    v: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => {
            ops::pv_edge(mesh, apvm_factor, dt, pv_vertex, pv_cell, u, v, out, edges)
        }
        KernelBackend::Fused => fused::pv_edge(
            mesh,
            kc,
            apvm_factor,
            dt,
            pv_vertex,
            pv_cell,
            u,
            v,
            out,
            edges,
        ),
        KernelBackend::Simd => simd::pv_edge(
            mesh,
            kc,
            lanes(out, &edges),
            apvm_factor,
            dt,
            pv_vertex,
            pv_cell,
            u,
            v,
            out,
            edges,
        ),
    }
}

/// B1 — momentum tendency on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_u(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    gravity: f64,
    pv_edge: &[f64],
    u: &[f64],
    h_edge: &[f64],
    ke: &[f64],
    h: &[f64],
    b: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => {
            ops::tend_u(mesh, gravity, pv_edge, u, h_edge, ke, h, b, out, edges)
        }
        KernelBackend::Fused => {
            fused::tend_u(mesh, kc, gravity, pv_edge, u, h_edge, ke, h, b, out, edges)
        }
        KernelBackend::Simd => simd::tend_u(
            mesh,
            kc,
            lanes(out, &edges),
            gravity,
            pv_edge,
            u,
            h_edge,
            ke,
            h,
            b,
            out,
            edges,
        ),
    }
}

/// C1 — del2 dissipation (read-modify-write) on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_u_del2(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    nu: f64,
    divergence: &[f64],
    vorticity: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_u_del2(mesh, nu, divergence, vorticity, out, edges),
        KernelBackend::Fused => fused::tend_u_del2(mesh, kc, nu, divergence, vorticity, out, edges),
        KernelBackend::Simd => simd::tend_u_del2(
            mesh,
            kc,
            lanes(out, &edges),
            nu,
            divergence,
            vorticity,
            out,
            edges,
        ),
    }
}

/// C1 (chained) — inner vector Laplacian on the configured backend.
pub fn lap_u(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    divergence: &[f64],
    vorticity: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::lap_u(mesh, divergence, vorticity, out, edges),
        KernelBackend::Fused => fused::lap_u(mesh, kc, divergence, vorticity, out, edges),
        KernelBackend::Simd => simd::lap_u(
            mesh,
            kc,
            lanes(out, &edges),
            divergence,
            vorticity,
            out,
            edges,
        ),
    }
}

/// C1 (chained) — outer del4 stage (read-modify-write) on the configured
/// backend.
#[allow(clippy::too_many_arguments)]
pub fn tend_u_del4(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    nu4: f64,
    div_lap: &[f64],
    vort_lap: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::tend_u_del4(mesh, nu4, div_lap, vort_lap, out, edges),
        KernelBackend::Fused => fused::tend_u_del4(mesh, kc, nu4, div_lap, vort_lap, out, edges),
        KernelBackend::Simd => simd::tend_u_del4(
            mesh,
            kc,
            lanes(out, &edges),
            nu4,
            div_lap,
            vort_lap,
            out,
            edges,
        ),
    }
}

/// D1/D2 — second-derivative blend terms on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn d2fdx2(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    h: &[f64],
    out1: &mut [f64],
    out2: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => ops::d2fdx2(mesh, h, out1, out2, edges),
        KernelBackend::Fused => fused::d2fdx2(mesh, kc, h, out1, out2, edges),
        KernelBackend::Simd => simd::d2fdx2(mesh, kc, lanes(out1, &edges), h, out1, out2, edges),
    }
}

/// H2 — thickness at edges on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn h_edge(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    config: &ModelConfig,
    h: &[f64],
    d2fdx2_cell1: &[f64],
    d2fdx2_cell2: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar => {
            ops::h_edge(mesh, config, h, d2fdx2_cell1, d2fdx2_cell2, out, edges)
        }
        KernelBackend::Fused => {
            fused::h_edge(mesh, kc, config, h, d2fdx2_cell1, d2fdx2_cell2, out, edges)
        }
        KernelBackend::Simd => simd::h_edge(
            mesh,
            kc,
            config,
            lanes(out, &edges),
            h,
            d2fdx2_cell1,
            d2fdx2_cell2,
            out,
            edges,
        ),
    }
}

/// H1 — tangential velocity (never fused; the scalar and fused backends
/// share the seed form).
pub fn tangential_velocity(
    backend: KernelBackend,
    mesh: &Mesh,
    u: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    match backend {
        KernelBackend::Scalar | KernelBackend::Fused => {
            ops::tangential_velocity(mesh, u, out, edges)
        }
        KernelBackend::Simd => simd::tangential_velocity(mesh, lanes(out, &edges), u, out, edges),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_and_simd_agree_bitwise_per_kernel() {
        // The k=1 simd tier must be indistinguishable from the fused tier
        // through the dispatch layer — this is what lets every executor
        // offer the simd backend without per-executor proofs.
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig {
            high_order_h_edge: true,
            ..Default::default()
        };
        let kc = KernelCoeffs::build(&mesh, &config);
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
        let u: Vec<f64> = (0..ne).map(|e| (e as f64 * 0.13).sin()).collect();
        let h: Vec<f64> = (0..nc).map(|i| 900.0 + (i as f64 * 0.7).cos()).collect();

        let mut a = vec![0.0; nv];
        let mut b = vec![0.0; nv];
        vorticity(KernelBackend::Fused, &mesh, &kc, &u, &mut a, 0..nv);
        vorticity(KernelBackend::Simd, &mesh, &kc, &u, &mut b, 0..nv);
        assert_eq!(a, b);

        let mut ca = vec![0.0; nc];
        let mut cb = vec![0.0; nc];
        vorticity_cell(KernelBackend::Fused, &mesh, &kc, &a, &mut ca, 0..nc);
        vorticity_cell(KernelBackend::Simd, &mesh, &kc, &b, &mut cb, 0..nc);
        assert_eq!(ca, cb);

        let mut d1a = vec![0.0; ne];
        let mut d2a = vec![0.0; ne];
        let mut d1b = vec![0.0; ne];
        let mut d2b = vec![0.0; ne];
        d2fdx2(
            KernelBackend::Fused,
            &mesh,
            &kc,
            &h,
            &mut d1a,
            &mut d2a,
            0..ne,
        );
        d2fdx2(
            KernelBackend::Simd,
            &mesh,
            &kc,
            &h,
            &mut d1b,
            &mut d2b,
            0..ne,
        );
        let mut ha = vec![0.0; ne];
        let mut hb = vec![0.0; ne];
        h_edge(
            KernelBackend::Fused,
            &mesh,
            &kc,
            &config,
            &h,
            &d1a,
            &d2a,
            &mut ha,
            0..ne,
        );
        h_edge(
            KernelBackend::Simd,
            &mesh,
            &kc,
            &config,
            &h,
            &d1b,
            &d2b,
            &mut hb,
            0..ne,
        );
        assert_eq!(ha, hb);
    }

    #[test]
    fn unfused_kernels_identical_across_all_backends() {
        // H1/E have nothing to fuse: all three backends replay the seed
        // arithmetic and must agree exactly.
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig::default();
        let kc = KernelCoeffs::build(&mesh, &config);
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
        let u: Vec<f64> = (0..ne).map(|e| (e as f64 * 0.29).cos()).collect();
        let h: Vec<f64> = (0..nc).map(|i| 1000.0 + (i as f64).sin()).collect();
        let f_vertex = vec![1e-4; nv];
        let mut vort = vec![0.0; nv];
        vorticity(KernelBackend::Fused, &mesh, &kc, &u, &mut vort, 0..nv);

        let mut outs: Vec<Vec<f64>> = Vec::new();
        for backend in KernelBackend::ALL {
            let mut tv = vec![0.0; ne];
            tangential_velocity(backend, &mesh, &u, &mut tv, 0..ne);
            let mut pv = vec![0.0; nv];
            pv_vertex(backend, &mesh, &h, &vort, &f_vertex, &mut pv, 0..nv);
            tv.extend(pv);
            outs.push(tv);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }
}
