//! Exact `O(N)` solver for spanning-tree Laplacian systems.
//!
//! On a tree, `L_T x = b` (with `Σ b = 0`) is solved by two sweeps:
//!
//! 1. **Upward** (leaves → root): the current through the edge `(u,
//!    parent(u))` equals the total injection inside `u`'s subtree, so a
//!    single pass in reverse BFS order accumulates all edge flows.
//! 2. **Downward** (root → leaves): fixing `x_root = 0`, Ohm's law gives
//!    `x_u = x_parent + flow_u / w_u`; a final projection makes the
//!    solution mean-zero.
//!
//! [`NearTreeSolver`] extends the exact solve to a spanning tree plus a
//! few off-tree edges — the shape of every graph SGL learns — with a
//! Woodbury correction over the off-tree edges.

use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::tree::RootedTree;
use sgl_graph::Graph;
use sgl_linalg::{vecops, CholeskyFactor, DenseMatrix, LinalgError};

/// Precomputed tree factorization (just the rooted order — the "numeric"
/// work is done per solve in two linear sweeps).
///
/// # Example
/// ```
/// use sgl_graph::Graph;
/// use sgl_solver::TreeSolver;
/// let tree = Graph::from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)]);
/// let solver = TreeSolver::new(&tree);
/// let x = solver.solve(&[1.0, 0.0, -1.0]);
/// // Current 1 A flows 0 → 2 across conductances 2 and 1.
/// assert!(((x[0] - x[1]) - 0.5).abs() < 1e-12);
/// assert!(((x[1] - x[2]) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSolver {
    tree: RootedTree,
}

impl TreeSolver {
    /// Build from a connected tree graph.
    ///
    /// # Panics
    /// Panics if `tree` is not a connected tree (see
    /// [`RootedTree::from_tree_graph`]).
    pub fn new(tree: &Graph) -> Self {
        TreeSolver {
            tree: RootedTree::from_tree_graph(tree, 0),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Borrow the rooted tree.
    pub fn rooted_tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Solve `L_T x = b` returning the mean-zero solution.
    ///
    /// The right-hand side is projected onto the mean-zero subspace first,
    /// so any `b` is accepted.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the node count.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.num_nodes()];
        self.solve_into(b, &mut x);
        x
    }

    /// Apply the solve into a caller-provided buffer, allocation-free
    /// (the preconditioner path applies this once per PCG iteration).
    /// Both sweeps run in place: the upward pass turns `out` into edge
    /// currents, and the downward pass overwrites each node's current
    /// with its potential exactly when it is last read (parents precede
    /// children in elimination order).
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        let n = self.num_nodes();
        assert_eq!(b.len(), n, "tree solve: rhs length mismatch");
        assert_eq!(out.len(), n, "tree solve: output length mismatch");
        out.copy_from_slice(b);
        self.solve_in_place(out);
    }

    /// Solve with the right-hand side in `out`, overwriting it with the
    /// mean-zero solution.
    fn solve_in_place(&self, out: &mut [f64]) {
        vecops::project_out_mean(out);
        // Upward sweep: accumulate subtree injection sums into the parent;
        // `out[u]` becomes the current through (u, parent(u)).
        for &u in self.tree.order.iter().rev() {
            let p = self.tree.parent[u];
            if p != u {
                let fu = out[u];
                out[p] += fu;
            }
        }
        // Downward sweep: integrate potentials from the root.
        for &u in &self.tree.order {
            let p = self.tree.parent[u];
            if p != u {
                out[u] = out[p] + out[u] / self.tree.parent_weight[u];
            } else {
                out[u] = 0.0;
            }
        }
        vecops::project_out_mean(out);
    }
}

/// Exact solver for a connected graph given as its maximum spanning
/// tree `T` plus `r` off-tree edges (Algorithm 1 grows the tree by
/// `⌈Nβ⌉` edges per iteration, so learned graphs have exactly this
/// shape).
///
/// With `B` the off-tree incidence columns and `W` their weights, the
/// Woodbury identity gives `L⁺ b = L_T⁺ (b − B s)` where
/// `C s = Bᵀ L_T⁺ b` and `C = W⁻¹ + Bᵀ L_T⁺ B` is the `r × r`
/// capacitance (SPD, so Cholesky). A solve is two [`TreeSolver`] sweeps
/// plus two triangular solves of order `r`; setup is `r` tree solves
/// plus the `O(r³)` factorization. Only the tree and the factor are
/// kept — `O(N + r²)` memory, no `r × N` block. Exact up to rounding, no
/// iteration; the `O(r³)` setup is what caps `r` (the `Auto` method takes
/// it up to 256).
///
/// # Example
/// ```
/// use sgl_graph::Graph;
/// use sgl_solver::NearTreeSolver;
/// // A 4-cycle: a path tree plus one off-tree edge.
/// let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
/// let solver = NearTreeSolver::new(&g).unwrap();
/// assert_eq!(solver.num_off_tree_edges(), 1);
/// let mut x = vec![0.0; 4];
/// solver.solve_into(&[1.0, 0.0, -1.0, 0.0], &mut x);
/// // Two parallel 2 Ω paths between nodes 0 and 2: 1 Ω.
/// assert!(((x[0] - x[2]) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct NearTreeSolver {
    tree: TreeSolver,
    /// The off-tree edges `(u, v)`.
    off_tree: Vec<(usize, usize)>,
    /// Cholesky factor of the capacitance (`None` for a tree).
    capacitance: Option<CholeskyFactor>,
}

impl NearTreeSolver {
    /// Split `graph` into its maximum spanning tree and the off-tree
    /// edges, and factor the capacitance over all of them.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] for a disconnected graph or
    /// a numerically singular capacitance.
    pub fn new(graph: &Graph) -> Result<Self, LinalgError> {
        let spanning = maximum_spanning_tree(graph);
        if spanning.num_components != 1 {
            return Err(LinalgError::InvalidInput(
                "near-tree solver requires a connected graph".into(),
            ));
        }
        let tree = TreeSolver::new(&spanning.to_graph(graph));
        let off: Vec<_> = spanning
            .off_tree_edges()
            .into_iter()
            .map(|i| graph.edge(i))
            .collect();
        let off_tree: Vec<(usize, usize)> = off.iter().map(|e| (e.u, e.v)).collect();
        if off.is_empty() {
            return Ok(NearTreeSolver {
                tree,
                off_tree,
                capacitance: None,
            });
        }
        // C_ij = δ_ij / w_i + b_iᵀ L_T⁺ b_j, one column per tree solve.
        let r = off.len();
        let mut cap = DenseMatrix::zeros(r, r);
        let mut z = vec![0.0; graph.num_nodes()];
        for (j, e) in off.iter().enumerate() {
            z.fill(0.0);
            z[e.u] = 1.0;
            z[e.v] = -1.0;
            tree.solve_in_place(&mut z);
            for (i, &(u, v)) in off_tree.iter().enumerate() {
                cap.set(i, j, z[u] - z[v]);
            }
        }
        // Exactly symmetric in theory; symmetrize the rounding.
        for i in 0..r {
            for j in (i + 1)..r {
                let s = 0.5 * (cap.get(i, j) + cap.get(j, i));
                cap.set(i, j, s);
                cap.set(j, i, s);
            }
            cap.set(i, i, cap.get(i, i) + 1.0 / off[i].weight);
        }
        // An off-tree edge weighs no more than any tree edge on its cycle,
        // so every squared Cholesky pivot of C is at least 1/w_j ≥
        // C_jj / (1 + cycle length): the factorization fails only on
        // weights whose inverse overflows.
        let factor = CholeskyFactor::compute(&cap).map_err(|_| {
            LinalgError::InvalidInput(
                "near-tree capacitance is numerically singular; use tree-PCG".into(),
            )
        })?;
        Ok(NearTreeSolver {
            tree,
            off_tree,
            capacitance: Some(factor),
        })
    }

    /// Number of off-tree edges `r` (the rank of the correction).
    pub fn num_off_tree_edges(&self) -> usize {
        self.off_tree.len()
    }

    /// Solve `L x = b` into `out`, returning the mean-zero solution; `b`
    /// is projected onto the mean-zero subspace first. Allocates only
    /// the two order-`r` vectors of the capacitance solve.
    ///
    /// # Panics
    /// Panics if `b` or `out` differ from the node count.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        self.tree.solve_into(b, out);
        let Some(capacitance) = &self.capacitance else {
            return;
        };
        let t: Vec<f64> = self
            .off_tree
            .iter()
            .map(|&(u, v)| out[u] - out[v])
            .collect();
        let s = capacitance.solve(&t);
        out.copy_from_slice(b);
        for (&(u, v), si) in self.off_tree.iter().zip(s) {
            out[u] -= si;
            out[v] += si;
        }
        self.tree.solve_in_place(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_graph::laplacian::laplacian_csr;
    use sgl_linalg::Rng;

    fn check_solution(tree: &Graph, b: &[f64], x: &[f64], tol: f64) {
        let l = laplacian_csr(tree);
        let lx = l.matvec(x);
        let mut bp = b.to_vec();
        vecops::project_out_mean(&mut bp);
        for i in 0..b.len() {
            assert!(
                (lx[i] - bp[i]).abs() < tol,
                "residual {} at {i}",
                (lx[i] - bp[i]).abs()
            );
        }
        assert!(vecops::mean(x).abs() < tol);
    }

    #[test]
    fn path_tree_exact() {
        let tree = Graph::from_edges(5, (0..4).map(|i| (i, i + 1, (i + 1) as f64)));
        let solver = TreeSolver::new(&tree);
        let mut rng = Rng::seed_from_u64(1);
        let mut b = rng.normal_vec(5);
        vecops::project_out_mean(&mut b);
        let x = solver.solve(&b);
        check_solution(&tree, &b, &x, 1e-12);
    }

    #[test]
    fn star_tree_exact() {
        let tree = Graph::from_edges(6, (1..6).map(|i| (0, i, i as f64)));
        let solver = TreeSolver::new(&tree);
        let b = [5.0, -1.0, -1.0, -1.0, -1.0, -1.0];
        let x = solver.solve(&b);
        check_solution(&tree, &b, &x, 1e-12);
    }

    #[test]
    fn random_tree_exact() {
        // Random recursive tree on 200 nodes.
        let mut rng = Rng::seed_from_u64(7);
        let n = 200;
        let mut edges = Vec::new();
        for v in 1..n {
            let u = rng.below(v);
            edges.push((u, v, 0.1 + rng.uniform() * 10.0));
        }
        let tree = Graph::from_edges(n, edges);
        let solver = TreeSolver::new(&tree);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        let x = solver.solve(&b);
        check_solution(&tree, &b, &x, 1e-9);
    }

    #[test]
    fn unbalanced_rhs_is_projected() {
        let tree = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]);
        let solver = TreeSolver::new(&tree);
        // Sum is not zero; solver should project.
        let x = solver.solve(&[3.0, 0.0, 0.0]);
        check_solution(&tree, &[3.0, 0.0, 0.0], &x, 1e-12);
    }

    #[test]
    fn near_tree_on_a_tree_has_no_correction() {
        let tree = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)]);
        let solver = NearTreeSolver::new(&tree).unwrap();
        assert_eq!(solver.num_off_tree_edges(), 0);
        let b = [1.0, 0.0, 0.0, -1.0];
        let mut x = vec![0.0; 4];
        solver.solve_into(&b, &mut x);
        assert_eq!(x, TreeSolver::new(&tree).solve(&b));
        let disconnected = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(NearTreeSolver::new(&disconnected).is_err());
    }

    #[test]
    fn two_node_ohms_law() {
        let tree = Graph::from_edges(2, [(0, 1, 4.0)]);
        let solver = TreeSolver::new(&tree);
        let x = solver.solve(&[1.0, -1.0]);
        assert!(((x[0] - x[1]) - 0.25).abs() < 1e-14);
    }
}
