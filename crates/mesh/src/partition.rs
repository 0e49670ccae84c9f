//! Domain decomposition: recursive coordinate bisection plus multi-layer
//! halo construction and exchange lists.
//!
//! This plays the role of the METIS/`graph.info` partitioning in MPAS. Each
//! rank receives a [`RankLocal`] view: its owned cells, a configurable number
//! of halo layers of remote cells, the induced local edge/vertex sets, and
//! matched send/receive lists so the message runtime can update halos
//! without any global knowledge.
//!
//! Ownership rules (deterministic, rank-independent):
//! * cell owner — from RCB;
//! * edge owner — owner of `cells_on_edge[e][0]`;
//! * vertex owner — owner of `cells_on_vertex[v][0]`.
//!
//! Global→local lookups go through dense, transient indices: global-length
//! `Vec`s (see [`NOT_LOCAL`]) built while a rank's view or its exchange
//! lists are assembled and dropped afterwards. [`RankLocal`] carries none.

use crate::mesh::{CellId, EdgeId, Mesh, VertexId};

/// Sentinel of a dense global→local index: the global id is not local.
pub(crate) const NOT_LOCAL: u32 = u32::MAX;

/// Point `g2l[g]` at `l` for every local id `l` with global id `g`.
pub(crate) fn index_into(g2l: &mut [u32], l2g: &[u32]) {
    for (l, &g) in l2g.iter().enumerate() {
        g2l[g as usize] = l as u32;
    }
}

/// A partition of a mesh across `n_ranks` ranks.
#[derive(Debug, Clone)]
pub struct MeshPartition {
    /// Number of parts.
    pub n_ranks: usize,
    /// Owning rank of every global cell.
    pub owner_cell: Vec<u32>,
    /// Owning rank of every global edge.
    pub owner_edge: Vec<u32>,
    /// Per-rank local views.
    pub ranks: Vec<RankLocal>,
}

/// One rank's local view of the mesh.
#[derive(Debug, Clone)]
pub struct RankLocal {
    /// This rank's id.
    pub rank: usize,
    /// Global cell ids: owned first, then halo layer 1, layer 2, ...
    pub cells: Vec<CellId>,
    /// Number of owned cells (prefix of `cells`).
    pub n_owned_cells: usize,
    /// Global edge ids: edges owned by this rank first, then remote edges
    /// touching any local cell.
    pub edges: Vec<EdgeId>,
    /// Number of owned edges (prefix of `edges`).
    pub n_owned_edges: usize,
    /// Global vertex ids of all vertices whose three cells are all local.
    pub vertices: Vec<VertexId>,
    /// Per neighbor rank: local indices of **owned** cells to send.
    pub send_cells: Vec<(usize, Vec<u32>)>,
    /// Per neighbor rank: local indices of **halo** cells to receive.
    pub recv_cells: Vec<(usize, Vec<u32>)>,
    /// Per neighbor rank: local indices of owned edges to send.
    pub send_edges: Vec<(usize, Vec<u32>)>,
    /// Per neighbor rank: local indices of halo edges to receive.
    pub recv_edges: Vec<(usize, Vec<u32>)>,
}

impl RankLocal {
    /// Total number of local cells (owned + halo).
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total number of local edges (owned + halo).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Bytes exchanged per halo update of one `f64` cell field plus one
    /// `f64` edge field (used by the communication cost model).
    pub fn halo_bytes(&self) -> usize {
        let cells: usize = self.recv_cells.iter().map(|(_, v)| v.len()).sum();
        let edges: usize = self.recv_edges.iter().map(|(_, v)| v.len()).sum();
        (cells + edges) * std::mem::size_of::<f64>()
    }
}

/// Recursive coordinate bisection of the cell centers into `n_parts`
/// near-equal parts. Returns the owner of each cell.
pub fn rcb_partition(mesh: &Mesh, n_parts: usize) -> Vec<u32> {
    assert!(n_parts >= 1);
    let mut owner = vec![0u32; mesh.n_cells()];
    let mut idx: Vec<u32> = (0..mesh.n_cells() as u32).collect();
    rcb_recurse(mesh, &mut idx, 0, n_parts, &mut owner);
    owner
}

fn rcb_recurse(mesh: &Mesh, idx: &mut [u32], first_part: usize, n_parts: usize, owner: &mut [u32]) {
    if n_parts == 1 {
        for &i in idx.iter() {
            owner[i as usize] = first_part as u32;
        }
        return;
    }
    // Split proportionally so odd rank counts stay balanced.
    let left_parts = n_parts / 2;
    let right_parts = n_parts - left_parts;
    let split_at = idx.len() * left_parts / n_parts;

    // Pick the coordinate with the largest spread.
    let spread = |get: fn(&Mesh, u32) -> f64| {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in idx.iter() {
            let v = get(mesh, i);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    };
    let fx = |m: &Mesh, i: u32| m.x_cell[i as usize].x;
    let fy = |m: &Mesh, i: u32| m.x_cell[i as usize].y;
    let fz = |m: &Mesh, i: u32| m.x_cell[i as usize].z;
    let (sx, sy, sz) = (spread(fx), spread(fy), spread(fz));
    let key: fn(&Mesh, u32) -> f64 = if sx >= sy && sx >= sz {
        fx
    } else if sy >= sz {
        fy
    } else {
        fz
    };
    // (coordinate, cell id) is a total order, so selecting the split point
    // puts exactly the cells a full sort would put into each half.
    if split_at < idx.len() {
        idx.select_nth_unstable_by(split_at, |&a, &b| {
            key(mesh, a)
                .partial_cmp(&key(mesh, b))
                .expect("cell coordinates are finite")
                .then(a.cmp(&b))
        });
    }
    let (left, right) = idx.split_at_mut(split_at);
    rcb_recurse(mesh, left, first_part, left_parts, owner);
    rcb_recurse(mesh, right, first_part + left_parts, right_parts, owner);
}

impl MeshPartition {
    /// Partition `mesh` into `n_ranks` parts with `halo_layers` layers of
    /// ghost cells (the shallow-water RK4 step with TRiSK stencils needs 3
    /// layers to advance owned points without mid-step communication).
    pub fn build(mesh: &Mesh, n_ranks: usize, halo_layers: usize) -> Self {
        let owner_cell = rcb_partition(mesh, n_ranks);
        let owner_edge: Vec<u32> = mesh
            .cells_on_edge
            .iter()
            .map(|&[c1, _]| owner_cell[c1 as usize])
            .collect();

        let mut ranks = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            ranks.push(Self::build_rank(
                mesh,
                &owner_cell,
                &owner_edge,
                r,
                halo_layers,
            ));
        }
        let mut part = MeshPartition {
            n_ranks,
            owner_cell,
            owner_edge,
            ranks,
        };
        part.wire_exchange_lists();
        part
    }

    /// Number of mesh edges whose two cells live on different ranks — the
    /// classic partition-quality metric (communication volume is
    /// proportional to it).
    pub fn edge_cut(&self, mesh: &Mesh) -> usize {
        mesh.cells_on_edge
            .iter()
            .filter(|&&[a, b]| self.owner_cell[a as usize] != self.owner_cell[b as usize])
            .count()
    }

    /// Total halo cells across ranks (replication overhead of the chosen
    /// halo depth).
    pub fn total_halo_cells(&self) -> usize {
        self.ranks
            .iter()
            .map(|r| r.n_cells() - r.n_owned_cells)
            .sum()
    }

    fn build_rank(
        mesh: &Mesh,
        owner_cell: &[u32],
        owner_edge: &[u32],
        rank: usize,
        halo_layers: usize,
    ) -> RankLocal {
        // Owned cells in ascending global order (deterministic).
        let mut cells: Vec<CellId> = (0..mesh.n_cells() as u32)
            .filter(|&c| owner_cell[c as usize] == rank as u32)
            .collect();
        let n_owned_cells = cells.len();
        let mut in_set = vec![false; mesh.n_cells()];
        for &g in &cells {
            in_set[g as usize] = true;
        }

        // Breadth-first halo layers over cellsOnCell, each sorted for
        // determinism.
        let mut frontier_start = 0;
        for _layer in 0..halo_layers {
            let frontier_end = cells.len();
            let mut next: Vec<CellId> = Vec::new();
            for &g in &cells[frontier_start..frontier_end] {
                for &nb in mesh.cells_of_cell(g as usize) {
                    if !in_set[nb as usize] {
                        in_set[nb as usize] = true;
                        next.push(nb);
                    }
                }
            }
            next.sort_unstable();
            cells.extend_from_slice(&next);
            frontier_start = frontier_end;
        }

        // Local edges: all edges of local cells; owned-by-me first, each
        // part in ascending global order.
        let mut local_edge = vec![false; mesh.n_edges()];
        for &g in &cells {
            for &e in mesh.edges_of_cell(g as usize) {
                local_edge[e as usize] = true;
            }
        }
        let local_edges = |mine: bool| {
            let local_edge = &local_edge;
            (0..mesh.n_edges() as u32).filter(move |&e| {
                local_edge[e as usize] && (owner_edge[e as usize] == rank as u32) == mine
            })
        };
        let mut edges: Vec<EdgeId> = local_edges(true).collect();
        let n_owned_edges = edges.len();
        edges.extend(local_edges(false));

        // Local vertices: those whose 3 cells are all local (diagnostics on
        // them are then locally computable).
        let vertices: Vec<VertexId> = (0..mesh.n_vertices() as u32)
            .filter(|&v| {
                mesh.cells_on_vertex[v as usize]
                    .iter()
                    .all(|&c| in_set[c as usize])
            })
            .collect();

        RankLocal {
            rank,
            cells,
            n_owned_cells,
            edges,
            n_owned_edges,
            vertices,
            send_cells: Vec::new(),
            recv_cells: Vec::new(),
            send_edges: Vec::new(),
            recv_edges: Vec::new(),
        }
    }

    /// Build matched send/recv lists. Both sides enumerate the transferred
    /// global ids in the receiver's halo order, so packing on the sender and
    /// unpacking on the receiver agree element-by-element.
    fn wire_exchange_lists(&mut self) {
        let n = self.n_ranks;
        // flows[from][to]: global ids `to` receives from `from`, in `to`'s
        // halo order.
        let mut cell_flows: Vec<Vec<Vec<CellId>>> = vec![vec![Vec::new(); n]; n];
        let mut edge_flows: Vec<Vec<Vec<EdgeId>>> = vec![vec![Vec::new(); n]; n];
        for (r, local) in self.ranks.iter().enumerate() {
            for &g in &local.cells[local.n_owned_cells..] {
                cell_flows[self.owner_cell[g as usize] as usize][r].push(g);
            }
            for &g in &local.edges[local.n_owned_edges..] {
                edge_flows[self.owner_edge[g as usize] as usize][r].push(g);
            }
        }
        // One dense global→local scratch index, reused across ranks: every
        // id looked up for rank `r` is local to `r`, so entries left over
        // from an earlier rank are overwritten before they are read.
        let mut cell_g2l = vec![NOT_LOCAL; self.owner_cell.len()];
        let mut edge_g2l = vec![NOT_LOCAL; self.owner_edge.len()];
        for (r, rl) in self.ranks.iter_mut().enumerate() {
            index_into(&mut cell_g2l, &rl.cells);
            index_into(&mut edge_g2l, &rl.edges);
            let lists = |flows: &[Vec<Vec<u32>>], g2l: &[u32], sending: bool| {
                (0..n)
                    .filter(|&other| other != r)
                    .filter_map(|other| {
                        let globals = if sending {
                            &flows[r][other]
                        } else {
                            &flows[other][r]
                        };
                        (!globals.is_empty())
                            .then(|| (other, globals.iter().map(|&g| g2l[g as usize]).collect()))
                    })
                    .collect()
            };
            rl.send_cells = lists(&cell_flows, &cell_g2l, true);
            rl.recv_cells = lists(&cell_flows, &cell_g2l, false);
            rl.send_edges = lists(&edge_flows, &edge_g2l, true);
            rl.recv_edges = lists(&edge_flows, &edge_g2l, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icosahedron::IcosaGrid;
    use crate::voronoi::build_mesh;

    fn mesh() -> Mesh {
        build_mesh(&IcosaGrid::subdivide(3))
    }

    #[test]
    fn ownership_is_a_partition() {
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 2);
        let mut counts = vec![0usize; 4];
        for &o in &p.owner_cell {
            counts[o as usize] += 1;
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, m.n_cells());
        // Balance within 2%.
        let ideal = m.n_cells() as f64 / 4.0;
        for &c in &counts {
            assert!(
                (c as f64 / ideal - 1.0).abs() < 0.02,
                "imbalance: {counts:?}"
            );
        }
    }

    #[test]
    fn owned_regions_are_disjoint_and_cover() {
        let m = mesh();
        let p = MeshPartition::build(&m, 5, 1);
        let mut seen_cells = vec![false; m.n_cells()];
        let mut seen_edges = vec![false; m.n_edges()];
        for r in &p.ranks {
            for &c in &r.cells[..r.n_owned_cells] {
                assert!(!seen_cells[c as usize], "cell {c} owned twice");
                seen_cells[c as usize] = true;
            }
            for &e in &r.edges[..r.n_owned_edges] {
                assert!(!seen_edges[e as usize], "edge {e} owned twice");
                seen_edges[e as usize] = true;
            }
        }
        assert!(seen_cells.iter().all(|&b| b));
        assert!(seen_edges.iter().all(|&b| b));
    }

    #[test]
    fn halo_layers_grow_monotonically() {
        let m = mesh();
        let p1 = MeshPartition::build(&m, 4, 1);
        let p2 = MeshPartition::build(&m, 4, 2);
        let p3 = MeshPartition::build(&m, 4, 3);
        for r in 0..4 {
            assert!(p1.ranks[r].n_cells() < p2.ranks[r].n_cells());
            assert!(p2.ranks[r].n_cells() < p3.ranks[r].n_cells());
            // Owned counts are identical regardless of halo depth.
            assert_eq!(p1.ranks[r].n_owned_cells, p3.ranks[r].n_owned_cells);
        }
    }

    #[test]
    fn halo_layer1_is_exactly_the_cell_neighborhood() {
        let m = mesh();
        let p = MeshPartition::build(&m, 3, 1);
        for r in &p.ranks {
            let owned: std::collections::HashSet<_> =
                r.cells[..r.n_owned_cells].iter().copied().collect();
            let halo: std::collections::HashSet<_> =
                r.cells[r.n_owned_cells..].iter().copied().collect();
            let mut expect = std::collections::HashSet::new();
            for &c in &owned {
                for &nb in m.cells_of_cell(c as usize) {
                    if !owned.contains(&nb) {
                        expect.insert(nb);
                    }
                }
            }
            assert_eq!(halo, expect, "rank {} halo mismatch", r.rank);
        }
    }

    #[test]
    fn exchange_lists_are_matched() {
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 2);
        for r in 0..4 {
            for &(to, ref send) in &p.ranks[r].send_cells {
                let recv = p.ranks[to]
                    .recv_cells
                    .iter()
                    .find(|&&(from, _)| from == r)
                    .map(|(_, v)| v)
                    .expect("missing recv side");
                assert_eq!(send.len(), recv.len());
                // Same global ids in the same order on both sides.
                for (s, rcv) in send.iter().zip(recv) {
                    let g_send = p.ranks[r].cells[*s as usize];
                    let g_recv = p.ranks[to].cells[*rcv as usize];
                    assert_eq!(g_send, g_recv);
                }
                // Sender only sends what it owns; receiver only fills halo.
                for s in send {
                    assert!((*s as usize) < p.ranks[r].n_owned_cells);
                }
                for rcv in recv {
                    assert!((*rcv as usize) >= p.ranks[to].n_owned_cells);
                }
            }
        }
    }

    #[test]
    fn every_halo_cell_is_covered_by_exactly_one_recv() {
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 2);
        for r in &p.ranks {
            let mut covered = vec![0u32; r.n_cells()];
            for (_, list) in &r.recv_cells {
                for &l in list {
                    covered[l as usize] += 1;
                }
            }
            for (l, &c) in covered.iter().enumerate() {
                let expect = if l < r.n_owned_cells { 0 } else { 1 };
                assert_eq!(c, expect, "cell local {l} of rank {}", r.rank);
            }
            // Edges too: a rank may update its whole local range because
            // the exchange then overwrites every halo entry.
            let mut covered = vec![0u32; r.n_edges()];
            for (_, list) in &r.recv_edges {
                for &l in list {
                    covered[l as usize] += 1;
                }
            }
            for (l, &c) in covered.iter().enumerate() {
                let expect = if l < r.n_owned_edges { 0 } else { 1 };
                assert_eq!(c, expect, "edge local {l} of rank {}", r.rank);
            }
        }
    }

    #[test]
    fn single_rank_partition_has_no_halo() {
        let m = mesh();
        let p = MeshPartition::build(&m, 1, 3);
        assert_eq!(p.ranks[0].n_owned_cells, m.n_cells());
        assert_eq!(p.ranks[0].n_cells(), m.n_cells());
        assert_eq!(p.ranks[0].n_owned_edges, m.n_edges());
        assert!(p.ranks[0].recv_cells.is_empty());
        assert_eq!(p.ranks[0].vertices.len(), m.n_vertices());
    }

    #[test]
    fn rcb_cuts_fewer_edges_than_a_cyclic_partition() {
        // Geometric partitions keep neighborhoods together: the RCB edge
        // cut must be far below a cells-dealt-round-robin partition.
        let m = mesh();
        let p = MeshPartition::build(&m, 8, 1);
        let rcb_cut = p.edge_cut(&m);
        let cyclic_cut = m
            .cells_on_edge
            .iter()
            .filter(|&&[a, b]| a % 8 != b % 8)
            .count();
        assert!(
            rcb_cut * 3 < cyclic_cut,
            "RCB {rcb_cut} vs cyclic {cyclic_cut}"
        );
        // Scaling sanity: the cut grows sublinearly with rank count.
        let p16 = MeshPartition::build(&m, 16, 1);
        assert!(p16.edge_cut(&m) < 2 * rcb_cut + m.n_edges() / 10);
    }

    #[test]
    fn halo_volume_tracks_surface_not_volume() {
        // Halo cells should be O(sqrt(cells/rank)) per rank per layer.
        let m = mesh();
        let p = MeshPartition::build(&m, 4, 1);
        let per_rank = p.total_halo_cells() / 4;
        let owned = m.n_cells() / 4;
        let ring_estimate = 3.46 * (owned as f64).sqrt();
        assert!(
            (per_rank as f64) < 3.0 * ring_estimate,
            "halo {per_rank} vs ring {ring_estimate}"
        );
    }

    #[test]
    fn rcb_is_deterministic() {
        let m = mesh();
        let a = rcb_partition(&m, 7);
        let b = rcb_partition(&m, 7);
        assert_eq!(a, b);
    }
}
