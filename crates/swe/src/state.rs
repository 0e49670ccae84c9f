//! Field containers: prognostic state, diagnostics, tendencies, and the
//! reconstructed cell-center velocities.
//!
//! All fields are flat `Vec<f64>` (structure-of-arrays) indexed by the mesh
//! entity id, the layout the kernels' hot loops expect. A model of `k`
//! vertical layers stores them as `k` contiguous lanes per entity,
//! `field[entity * k + lane]` (DESIGN.md §14); `k = 1` is the plain
//! single-layer layout.

use crate::layers::layer_h_scale;
use mpas_mesh::Mesh;

/// Copy lane `l` of a `k`-lane field into a single-lane one.
fn take_lane(src: &[f64], k: usize, l: usize, dst: &mut [f64]) {
    for (i, d) in dst.iter_mut().enumerate() {
        *d = src[i * k + l];
    }
}

/// Prognostic variables of the shallow-water system.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Fluid thickness at cells (m).
    pub h: Vec<f64>,
    /// Normal velocity at edges (m/s).
    pub u: Vec<f64>,
    /// Passive-tracer mass `h·q` at cells, one vector per tracer. Storing
    /// mass (not mixing ratio) makes the flux-form tendency telescope, so
    /// total tracer content is conserved to rounding like `h` itself.
    pub tracers: Vec<Vec<f64>>,
}

impl State {
    /// Zero-initialized state sized for a mesh (no tracers).
    pub fn zeros(mesh: &Mesh) -> Self {
        Self::zeros_with_tracers(mesh, 0)
    }

    /// Zero-initialized state with `n_tracers` tracer-mass fields.
    pub fn zeros_with_tracers(mesh: &Mesh, n_tracers: usize) -> Self {
        Self::with_lanes(mesh, 1, n_tracers)
    }

    /// Zero-initialized state of `k` lanes per entity with `n_tracers`
    /// tracer-mass fields.
    pub(crate) fn with_lanes(mesh: &Mesh, k: usize, n_tracers: usize) -> Self {
        State {
            h: vec![0.0; mesh.n_cells() * k],
            u: vec![0.0; mesh.n_edges() * k],
            tracers: vec![vec![0.0; mesh.n_cells() * k]; n_tracers],
        }
    }

    /// Broadcast a single-lane state across `k` lanes, scaling `h` and the
    /// tracer masses of lane `l` by [`layer_h_scale`]`(l)` (velocity is
    /// shared unscaled). Lane 0 reproduces `flat` exactly.
    pub fn broadcast(mesh: &Mesh, flat: &State, k: usize) -> Self {
        let mut s = Self::with_lanes(mesh, k, flat.n_tracers());
        let lanes = |dst: &mut [f64], src: &[f64], scaled: bool| {
            for (i, &x) in src.iter().enumerate() {
                for l in 0..k {
                    dst[i * k + l] = if scaled { x * layer_h_scale(l) } else { x };
                }
            }
        };
        lanes(&mut s.h, &flat.h, true);
        lanes(&mut s.u, &flat.u, false);
        for (dst, src) in s.tracers.iter_mut().zip(&flat.tracers) {
            lanes(dst, src, true);
        }
        s
    }

    /// Extract lane `l` of a multi-lane state as a single-lane one (the
    /// lane count is `h.len() / mesh.n_cells()`).
    pub fn extract_layer(&self, mesh: &Mesh, l: usize) -> State {
        let mut flat = State::zeros_with_tracers(mesh, self.n_tracers());
        self.extract_layer_into(mesh, l, &mut flat);
        flat
    }

    /// [`State::extract_layer`] into an existing single-lane state.
    pub(crate) fn extract_layer_into(&self, mesh: &Mesh, l: usize, flat: &mut State) {
        let k = self.h.len() / mesh.n_cells();
        assert!(l < k, "layer {l} out of {k}");
        take_lane(&self.h, k, l, &mut flat.h);
        take_lane(&self.u, k, l, &mut flat.u);
        flat.resize_tracers(mesh.n_cells(), self.n_tracers());
        for (dst, src) in flat.tracers.iter_mut().zip(&self.tracers) {
            take_lane(src, k, l, dst);
        }
    }

    /// Number of tracer fields carried.
    pub fn n_tracers(&self) -> usize {
        self.tracers.len()
    }

    /// Grow/shrink the tracer block to `n` zeroed fields of `n_cells`.
    pub fn resize_tracers(&mut self, n_cells: usize, n: usize) {
        self.tracers.resize_with(n, || vec![0.0; n_cells]);
        for t in &mut self.tracers {
            t.resize(n_cells, 0.0);
        }
    }

    /// `self = a` (copy without reallocating when shapes already match).
    pub fn copy_from(&mut self, a: &State) {
        self.h.copy_from_slice(&a.h);
        self.u.copy_from_slice(&a.u);
        self.tracers.resize_with(a.tracers.len(), Vec::new);
        for (dst, src) in self.tracers.iter_mut().zip(&a.tracers) {
            dst.resize(src.len(), 0.0);
            dst.copy_from_slice(src);
        }
    }

    /// Largest absolute difference in any field vs another state.
    pub fn max_abs_diff(&self, other: &State) -> f64 {
        fn field_diff(a: &[f64], b: &[f64]) -> f64 {
            a.iter()
                .zip(b)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        }
        let mut d = field_diff(&self.h, &other.h).max(field_diff(&self.u, &other.u));
        for (a, b) in self.tracers.iter().zip(&other.tracers) {
            d = d.max(field_diff(a, b));
        }
        d
    }
}

/// Diagnostic variables recomputed by `compute_solve_diagnostics` (the
/// Table-I intermediates).
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Thickness at edges.
    pub h_edge: Vec<f64>,
    /// Kinetic energy at cells.
    pub ke: Vec<f64>,
    /// Relative vorticity at vertices.
    pub vorticity: Vec<f64>,
    /// Relative vorticity interpolated to cells.
    pub vorticity_cell: Vec<f64>,
    /// Velocity divergence at cells.
    pub divergence: Vec<f64>,
    /// Potential vorticity at vertices.
    pub pv_vertex: Vec<f64>,
    /// Potential vorticity at cells.
    pub pv_cell: Vec<f64>,
    /// Potential vorticity at edges (APVM upwinded).
    pub pv_edge: Vec<f64>,
    /// Tangential velocity at edges.
    pub v: Vec<f64>,
    /// Second-derivative blend term at the edge's cell-1 side.
    pub d2fdx2_cell1: Vec<f64>,
    /// Second-derivative blend term at the edge's cell-2 side.
    pub d2fdx2_cell2: Vec<f64>,
}

impl Diagnostics {
    /// Zero-initialized diagnostics sized for a mesh.
    pub fn zeros(mesh: &Mesh) -> Self {
        Self::with_lanes(mesh, 1)
    }

    /// Zero-initialized diagnostics of `k` lanes per entity.
    pub(crate) fn with_lanes(mesh: &Mesh, k: usize) -> Self {
        let (nc, ne, nv) = (
            mesh.n_cells() * k,
            mesh.n_edges() * k,
            mesh.n_vertices() * k,
        );
        Diagnostics {
            h_edge: vec![0.0; ne],
            ke: vec![0.0; nc],
            vorticity: vec![0.0; nv],
            vorticity_cell: vec![0.0; nc],
            divergence: vec![0.0; nc],
            pv_vertex: vec![0.0; nv],
            pv_cell: vec![0.0; nc],
            pv_edge: vec![0.0; ne],
            v: vec![0.0; ne],
            d2fdx2_cell1: vec![0.0; ne],
            d2fdx2_cell2: vec![0.0; ne],
        }
    }

    /// Copy lane `l` of `k`-lane diagnostics into single-lane `out`.
    pub(crate) fn extract_layer_into(&self, k: usize, l: usize, out: &mut Diagnostics) {
        let pairs = [
            (&self.h_edge, &mut out.h_edge),
            (&self.ke, &mut out.ke),
            (&self.vorticity, &mut out.vorticity),
            (&self.vorticity_cell, &mut out.vorticity_cell),
            (&self.divergence, &mut out.divergence),
            (&self.pv_vertex, &mut out.pv_vertex),
            (&self.pv_cell, &mut out.pv_cell),
            (&self.pv_edge, &mut out.pv_edge),
            (&self.v, &mut out.v),
            (&self.d2fdx2_cell1, &mut out.d2fdx2_cell1),
            (&self.d2fdx2_cell2, &mut out.d2fdx2_cell2),
        ];
        for (src, dst) in pairs {
            take_lane(src, k, l, dst);
        }
    }
}

/// Tendencies produced by `compute_tend`.
#[derive(Debug, Clone)]
pub struct Tendencies {
    /// Thickness tendency at cells.
    pub tend_h: Vec<f64>,
    /// Normal-velocity tendency at edges.
    pub tend_u: Vec<f64>,
    /// Tracer-mass tendencies at cells, one vector per tracer.
    pub tend_tracers: Vec<Vec<f64>>,
}

impl Tendencies {
    /// Zero-initialized tendencies sized for a mesh (no tracers).
    pub fn zeros(mesh: &Mesh) -> Self {
        Self::with_lanes(mesh, 1, 0)
    }

    /// Zero-initialized tendencies of `k` lanes per entity.
    pub(crate) fn with_lanes(mesh: &Mesh, k: usize, n_tracers: usize) -> Self {
        Tendencies {
            tend_h: vec![0.0; mesh.n_cells() * k],
            tend_u: vec![0.0; mesh.n_edges() * k],
            tend_tracers: vec![vec![0.0; mesh.n_cells() * k]; n_tracers],
        }
    }
}

/// Output of `mpas_reconstruct`: Cartesian and zonal/meridional velocity at
/// cell centers.
#[derive(Debug, Clone, Default)]
pub struct Reconstruction {
    /// Cartesian x component at cells.
    pub ux: Vec<f64>,
    /// Cartesian y component at cells.
    pub uy: Vec<f64>,
    /// Cartesian z component at cells.
    pub uz: Vec<f64>,
    /// Zonal (eastward) component at cells.
    pub zonal: Vec<f64>,
    /// Meridional (northward) component at cells.
    pub meridional: Vec<f64>,
}

impl Reconstruction {
    /// Zero-initialized reconstruction sized for a mesh.
    pub fn zeros(mesh: &Mesh) -> Self {
        let nc = mesh.n_cells();
        Reconstruction {
            ux: vec![0.0; nc],
            uy: vec![0.0; nc],
            uz: vec![0.0; nc],
            zonal: vec![0.0; nc],
            meridional: vec![0.0; nc],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_mesh() {
        let mesh = mpas_mesh::generate(2, 0);
        let s = State::zeros(&mesh);
        assert_eq!(s.h.len(), mesh.n_cells());
        assert_eq!(s.u.len(), mesh.n_edges());
        let d = Diagnostics::zeros(&mesh);
        assert_eq!(d.vorticity.len(), mesh.n_vertices());
        assert_eq!(d.pv_edge.len(), mesh.n_edges());
        let r = Reconstruction::zeros(&mesh);
        assert_eq!(r.zonal.len(), mesh.n_cells());
    }

    #[test]
    fn max_abs_diff_and_copy() {
        let mesh = mpas_mesh::generate(1, 0);
        let mut a = State::zeros(&mesh);
        let mut b = State::zeros(&mesh);
        a.h[3] = 2.5;
        a.u[7] = -1.0;
        assert_eq!(a.max_abs_diff(&b), 2.5);
        b.copy_from(&a);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }
}
