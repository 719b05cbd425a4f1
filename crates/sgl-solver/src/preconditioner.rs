//! Preconditioners for projected PCG on graph Laplacians.

use crate::tree_solver::TreeSolver;
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_linalg::vecops;
use sgl_linalg::{CsrMatrix, Preconditioner};

/// Spanning-tree (support-graph) preconditioner: applies an exact solve on
/// a maximum spanning tree of the graph.
///
/// On SGL's learned graphs — a spanning tree plus `O(N β · iters)`
/// off-tree edges — PCG with it still takes 16–61 iterations per
/// right-hand side at `rtol` 1e-10, because every off-tree edge adds an
/// outlying eigenvalue. With at most 256 off-tree edges the exact
/// [`NearTreeSolver`](crate::NearTreeSolver) is faster; this
/// preconditioner serves the graphs past that.
#[derive(Debug, Clone)]
pub struct TreePreconditioner {
    solver: TreeSolver,
}

impl TreePreconditioner {
    /// Build from a connected graph by extracting its maximum spanning
    /// tree (heaviest conductances give the strongest support).
    ///
    /// # Panics
    /// Panics if the graph is disconnected.
    pub fn from_graph(g: &Graph) -> Self {
        let t = maximum_spanning_tree(g);
        assert_eq!(
            t.num_components, 1,
            "tree preconditioner requires a connected graph"
        );
        TreePreconditioner {
            solver: TreeSolver::new(&t.to_graph(g)),
        }
    }

    /// Build directly from a known spanning tree.
    ///
    /// # Panics
    /// Panics if `tree` is not a connected tree.
    pub fn from_tree(tree: &Graph) -> Self {
        TreePreconditioner {
            solver: TreeSolver::new(tree),
        }
    }
}

impl Preconditioner for TreePreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solver.solve_into(r, z);
    }
}

/// Symmetric Gauss–Seidel preconditioner on a Laplacian-like CSR matrix.
///
/// One application performs a forward then a backward sweep, which keeps
/// the preconditioner symmetric (a requirement for PCG). The diagonal is
/// regularized with a tiny shift so singular Laplacians stay sweepable.
#[derive(Debug, Clone)]
pub struct GaussSeidelPreconditioner {
    a: CsrMatrix,
    diag: Vec<f64>,
    sweeps: usize,
}

impl GaussSeidelPreconditioner {
    /// Wrap a symmetric CSR matrix; `sweeps` forward+backward passes per
    /// application (1 is standard).
    ///
    /// # Panics
    /// Panics if the matrix is not square or `sweeps == 0`.
    pub fn new(a: CsrMatrix, sweeps: usize) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "gauss-seidel: square matrix required");
        assert!(sweeps > 0, "gauss-seidel: needs at least one sweep");
        let diag: Vec<f64> = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() < 1e-300 { 1.0 } else { d })
            .collect();
        GaussSeidelPreconditioner { a, diag, sweeps }
    }

    /// One forward Gauss–Seidel sweep updating `x` in place.
    pub fn sweep_forward(&self, b: &[f64], x: &mut [f64]) {
        self.forward(b, x);
    }

    /// One backward Gauss–Seidel sweep updating `x` in place.
    pub fn sweep_backward(&self, b: &[f64], x: &mut [f64]) {
        self.backward(b, x);
    }

    fn forward(&self, b: &[f64], x: &mut [f64]) {
        let n = self.diag.len();
        for i in 0..n {
            let (cols, vals) = self.a.row(i);
            let mut s = b[i];
            for (c, v) in cols.iter().zip(vals) {
                if *c != i {
                    s -= v * x[*c];
                }
            }
            x[i] = s / self.diag[i];
        }
    }

    fn backward(&self, b: &[f64], x: &mut [f64]) {
        let n = self.diag.len();
        for i in (0..n).rev() {
            let (cols, vals) = self.a.row(i);
            let mut s = b[i];
            for (c, v) in cols.iter().zip(vals) {
                if *c != i {
                    s -= v * x[*c];
                }
            }
            x[i] = s / self.diag[i];
        }
    }

    /// Run `sweeps` symmetric smoothing passes on `x` for `A x = b`.
    pub fn smooth(&self, b: &[f64], x: &mut [f64]) {
        for _ in 0..self.sweeps {
            self.forward(b, x);
            self.backward(b, x);
        }
    }
}

impl Preconditioner for GaussSeidelPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|v| *v = 0.0);
        self.smooth(r, z);
        vecops::project_out_mean(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_graph::laplacian::laplacian_csr;
    use sgl_linalg::cg::{pcg_solve, CgOptions};
    use sgl_linalg::{ProjectedOperator, Rng};

    fn cycle_graph(n: usize) -> Graph {
        let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((n - 1, 0, 1.0));
        Graph::from_edges(n, edges)
    }

    fn solve_with<M: Preconditioner>(g: &Graph, m: &M, seed: u64) -> usize {
        let l = laplacian_csr(g);
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = rng.normal_vec(g.num_nodes());
        vecops::project_out_mean(&mut b);
        let opts = CgOptions {
            rtol: 1e-10,
            project_mean: true,
            ..CgOptions::default()
        };
        let p = ProjectedOperator::new(&l);
        let sol = pcg_solve(&p, m, &b, &opts).unwrap();
        // Verify residual.
        let lx = l.matvec(&sol.x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(vecops::norm2(&r) / vecops::norm2(&b) < 1e-8);
        sol.iterations
    }

    #[test]
    fn tree_preconditioner_is_exact_on_trees() {
        let tree = Graph::from_edges(50, (0..49).map(|i| (i, i + 1, 1.0 + i as f64)));
        let m = TreePreconditioner::from_tree(&tree);
        let iters = solve_with(&tree, &m, 3);
        assert!(iters <= 2, "tree-preconditioned solve took {iters} iters");
    }

    #[test]
    fn tree_preconditioner_fast_on_near_tree() {
        // Cycle = tree + one edge.
        let g = cycle_graph(100);
        let m = TreePreconditioner::from_graph(&g);
        let iters = solve_with(&g, &m, 4);
        assert!(iters <= 10, "near-tree solve took {iters} iters");
    }

    #[test]
    fn gauss_seidel_solves_cycle() {
        let g = cycle_graph(30);
        let m = GaussSeidelPreconditioner::new(laplacian_csr(&g), 1);
        let iters = solve_with(&g, &m, 5);
        assert!(iters < 100);
    }

    #[test]
    fn gauss_seidel_smooth_reduces_residual() {
        let g = cycle_graph(20);
        let l = laplacian_csr(&g);
        let m = GaussSeidelPreconditioner::new(l.clone(), 2);
        let mut rng = Rng::seed_from_u64(9);
        let mut b = rng.normal_vec(20);
        vecops::project_out_mean(&mut b);
        let mut x = vec![0.0; 20];
        let r0 = vecops::norm2(&b);
        m.smooth(&b, &mut x);
        let lx = l.matvec(&x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(vecops::norm2(&r) < r0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn tree_preconditioner_rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        TreePreconditioner::from_graph(&g);
    }
}
