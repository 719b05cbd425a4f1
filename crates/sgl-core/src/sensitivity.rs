//! Step 3 of Algorithm 1: influential edge identification.
//!
//! Each candidate off-tree edge `(s, t)` is scored by the gradient of the
//! graphical-Lasso objective with respect to its weight (eq. 13):
//!
//! ```text
//! s_{s,t} = ‖U_r^T e_{s,t}‖² − (1/M) ‖X^T e_{s,t}‖² = z^emb − z^data / M
//! ```
//!
//! A positive sensitivity means the spectral-embedding distance still
//! exceeds what the measurements warrant — adding the edge shrinks the
//! distortion. The data part is fixed, so it is cached per candidate.

use crate::embedding::Embedding;
use crate::measure::Measurements;
use sgl_graph::mst::SpanningTree;
use sgl_graph::{AdjacencyCsr, Graph};

/// A candidate off-tree edge with its cached measurement distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// kNN edge weight `M / z^data` (eq. 15), used when the edge joins
    /// the learned graph.
    pub weight: f64,
    /// Cached `z^data_{u,v} = ‖X^T e_{u,v}‖²`.
    pub zdata: f64,
}

/// The pool of off-tree candidates still eligible for inclusion.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    candidates: Vec<Candidate>,
    num_measurements: usize,
}

impl CandidatePool {
    /// Collect the off-tree edges of the kNN graph (`E_o \ E_tree`) with
    /// cached data distances.
    pub fn from_off_tree(
        knn_graph: &Graph,
        tree: &SpanningTree,
        measurements: &Measurements,
    ) -> Self {
        let candidates = tree
            .off_tree_edges()
            .into_iter()
            .map(|i| {
                let e = knn_graph.edge(i);
                Candidate {
                    u: e.u,
                    v: e.v,
                    weight: e.weight,
                    zdata: measurements.data_distance_sq(e.u, e.v),
                }
            })
            .collect();
        CandidatePool {
            candidates,
            num_measurements: measurements.num_measurements(),
        }
    }

    /// Collect every edge of `candidate_graph` that is not already an
    /// edge of `learned`, with data distances cached from (possibly
    /// extended) `measurements`. Used when a session resumes after a new
    /// measurement batch (the kNN graph is rebuilt over the richer data
    /// and previously learned edges must not re-enter the pool) and by
    /// the multilevel densification sweeps. The membership test scans
    /// the learned graph's adjacency ([`AdjacencyCsr::edge_between`],
    /// `O(deg)` over contiguous memory, no hashing) — on ultra-sparse
    /// learned graphs that beats a hash probe per candidate edge.
    pub fn from_graph_excluding(
        candidate_graph: &Graph,
        learned: &Graph,
        measurements: &Measurements,
    ) -> Self {
        let learned_adj = AdjacencyCsr::build(learned);
        let candidates = candidate_graph
            .edges()
            .iter()
            .filter(|e| learned_adj.edge_between(e.u, e.v).is_none())
            .map(|e| Candidate {
                u: e.u,
                v: e.v,
                weight: e.weight,
                zdata: measurements.data_distance_sq(e.u, e.v),
            })
            .collect();
        CandidatePool {
            candidates,
            num_measurements: measurements.num_measurements(),
        }
    }

    /// Rebuild a pool from an explicit candidate list (checkpoint
    /// restore). The pool's internal order is history-dependent —
    /// [`select_top`](CandidatePool::select_top) removes by
    /// `swap_remove` — so a bit-identical resume must replay the exact
    /// remaining candidates in their exact order, which no
    /// reconstruction from the graphs can produce.
    pub fn from_parts(candidates: Vec<Candidate>, num_measurements: usize) -> Self {
        CandidatePool {
            candidates,
            num_measurements,
        }
    }

    /// The measurement count `M` the cached data distances divide by.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Remaining candidate count.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the pool is exhausted.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Borrow the remaining candidates.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Sensitivities of all remaining candidates under the embedding,
    /// candidate-partitioned across the ambient
    /// [`par`](sgl_linalg::par) thread count (each entry is an
    /// independent eq.-13 evaluation, so the vector is identical at any
    /// thread count).
    pub fn sensitivities(&self, embedding: &Embedding) -> Vec<f64> {
        let m = self.num_measurements as f64;
        sgl_linalg::par::map_indexed(self.candidates.len(), 512, |i| {
            let c = &self.candidates[i];
            embedding.distance_sq(c.u, c.v) - c.zdata / m
        })
    }

    /// Maximum sensitivity (`s_max` of Step 4); `None` on an empty pool.
    pub fn max_sensitivity(&self, embedding: &Embedding) -> Option<f64> {
        self.sensitivities(embedding)
            .into_iter()
            .max_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Remove and return the top-ranked candidates: at most `max_count`
    /// edges with sensitivity strictly above `tol`, in descending
    /// sensitivity order (Step 3's "top ⌈Nβ⌉" rule).
    pub fn select_top(
        &mut self,
        sensitivities: &[f64],
        max_count: usize,
        tol: f64,
    ) -> Vec<Candidate> {
        assert_eq!(
            sensitivities.len(),
            self.candidates.len(),
            "sensitivity vector out of sync with pool"
        );
        let mut order: Vec<usize> = (0..self.candidates.len())
            .filter(|&i| sensitivities[i] > tol)
            .collect();
        order.sort_by(|&a, &b| sensitivities[b].partial_cmp(&sensitivities[a]).unwrap());
        order.truncate(max_count);
        // Collect in descending-sensitivity order, then remove from the
        // pool by descending index so swap_remove stays valid.
        let picked: Vec<Candidate> = order.iter().map(|&i| self.candidates[i]).collect();
        order.sort_unstable_by(|a, b| b.cmp(a));
        for i in order {
            self.candidates.swap_remove(i);
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{spectral_embedding, EmbeddingOptions};
    use crate::measure::Measurements;
    use sgl_graph::mst::maximum_spanning_tree;
    use sgl_linalg::{DenseMatrix, SymEig};

    fn cycle(n: usize) -> Graph {
        let mut e: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        e.push((0, n - 1, 1.0));
        Graph::from_edges(n, e)
    }

    fn fake_measurements(n: usize, m: usize) -> Measurements {
        let x = DenseMatrix::from_fn(n, m, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.1);
        Measurements::from_voltages(x).unwrap()
    }

    #[test]
    fn pool_collects_off_tree_edges() {
        let g = cycle(6);
        let t = maximum_spanning_tree(&g);
        let meas = fake_measurements(6, 4);
        let pool = CandidatePool::from_off_tree(&g, &t, &meas);
        assert_eq!(pool.len(), 1); // cycle minus spanning tree = 1 edge
        let c = pool.candidates()[0];
        assert_eq!(c.zdata, meas.data_distance_sq(c.u, c.v));
    }

    #[test]
    fn sensitivity_matches_dense_gradient() {
        // Validate eq. (13) against a brute-force dense computation, on a
        // cycle and on seeded random weighted chord graphs: z^emb from the
        // full eigendecomposition restricted to r−1 vectors must equal the
        // embedding's distance.
        let mut graphs = vec![cycle(8)];
        for seed in [1u64, 2, 3] {
            let mut rng = sgl_linalg::Rng::seed_from_u64(seed);
            let n = 9 + 2 * seed as usize;
            let mut g = cycle(n);
            for _ in 0..n {
                let (u, v) = (rng.below(n), rng.below(n));
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v, rng.uniform_in(0.2, 5.0));
                }
            }
            graphs.push(g);
        }
        for g in &graphs {
            let t = maximum_spanning_tree(g);
            let meas = fake_measurements(g.num_nodes(), 3);
            let tree_graph = t.to_graph(g);
            let emb =
                spectral_embedding(&tree_graph, 3, 0.0, &EmbeddingOptions::default()).unwrap();
            let pool = CandidatePool::from_off_tree(g, &t, &meas);
            let sens = pool.sensitivities(&emb);

            let laplacian = sgl_graph::laplacian::laplacian_csr(&tree_graph);
            let dense = SymEig::compute(&laplacian.to_dense()).unwrap();
            for (c, s) in pool.candidates().iter().zip(&sens) {
                let mut zemb = 0.0;
                for j in 1..=3 {
                    let col = dense.vectors.column(j);
                    let d = col[c.u] - col[c.v];
                    zemb += d * d / dense.values[j];
                }
                let want = zemb - c.zdata / 3.0;
                assert!(
                    (s - want).abs() < 1e-5 * (1.0 + want.abs()),
                    "candidate ({}, {}): {s} vs dense {want}",
                    c.u,
                    c.v
                );
            }
        }
    }

    #[test]
    fn select_top_respects_tol_and_count() {
        let g = cycle(10);
        let t = maximum_spanning_tree(&g);
        let meas = fake_measurements(10, 2);
        let mut pool = CandidatePool::from_off_tree(&g, &t, &meas);
        let n0 = pool.len();
        let sens = vec![1.0; n0];
        let picked = pool.select_top(&sens, 5, 2.0);
        assert!(picked.is_empty(), "all below tol");
        assert_eq!(pool.len(), n0);
        let picked = pool.select_top(&vec![1.0; n0], 5, 0.5);
        assert_eq!(picked.len(), n0.min(5));
        assert_eq!(pool.len(), n0 - picked.len());
    }

    #[test]
    fn max_sensitivity_empty_pool_is_none() {
        let g = cycle(4);
        let t = maximum_spanning_tree(&g);
        let meas = fake_measurements(4, 2);
        let mut pool = CandidatePool::from_off_tree(&g, &t, &meas);
        let n = pool.len();
        pool.select_top(&vec![1.0; n], n, 0.0);
        assert!(pool.is_empty());
        let tree_graph = t.to_graph(&g);
        let emb = spectral_embedding(&tree_graph, 1, 0.0, &EmbeddingOptions::default()).unwrap();
        assert!(pool.max_sensitivity(&emb).is_none());
    }
}
