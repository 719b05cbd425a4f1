//! User-facing Laplacian solver facade.

use crate::amg::{AmgHierarchy, AmgOptions};
use crate::preconditioner::TreePreconditioner;
use crate::tree_solver::NearTreeSolver;
use sgl_graph::laplacian::LaplacianOp;

use sgl_graph::traversal::is_connected;
use sgl_graph::Graph;
use sgl_linalg::cg::{pcg_solve_with, CgOptions, CgWorkspace};
use sgl_linalg::{vecops, JacobiPreconditioner, LinalgError, Preconditioner};

/// Most off-tree edges the exact near-tree solve takes on, from
/// `bench_solver`'s near-tree sweep (grid spanning tree plus `k` off-tree
/// edges, build plus 32 serial right-hand sides, on a 2-core x86-64
/// Xeon): at N = 1024 and 1600 the direct solve is 3–4× faster than
/// tree-PCG at `k` = 256, and tree-PCG catches up between 256 and 512 as
/// the `O(r³)` capacitance factorization takes over.
pub(crate) const MAX_OFF_TREE_EDGES: usize = 256;

/// Which solver backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMethod {
    /// Pick automatically: the exact near-tree solve for graphs with
    /// density ≤ 1.4 and at most 256 off-tree edges (trees included),
    /// tree-preconditioned PCG for the rest of density ≤ 1.4, AMG-PCG
    /// otherwise.
    #[default]
    Auto,
    /// Exact solve ([`NearTreeSolver`]): the maximum spanning tree's
    /// `O(N)` elimination plus a Woodbury correction over its `r ≤ 256`
    /// off-tree edges, `O(N + r²)` per right-hand side. No iteration.
    TreeDirect,
    /// PCG preconditioned by a maximum-spanning-tree solve (16–61
    /// iterations per right-hand side on learned graphs at `rtol` 1e-10).
    TreePcg,
    /// PCG preconditioned by an aggregation-AMG V-cycle.
    AmgPcg,
    /// PCG preconditioned by the Laplacian diagonal.
    JacobiPcg,
    /// PCG preconditioned by a shifted IC(0) factorization.
    IcholPcg,
}

/// Options for [`LaplacianSolver`].
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Backend selection.
    pub method: SolverMethod,
    /// Relative residual tolerance for the PCG backends.
    pub rtol: f64,
    /// PCG iteration cap.
    pub max_iter: usize,
    /// AMG construction options (used by the AMG backend).
    pub amg: AmgOptions,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            method: SolverMethod::Auto,
            rtol: 1e-10,
            max_iter: 10_000,
            amg: AmgOptions::default(),
        }
    }
}

/// Statistics from the most informative solve path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverStats {
    /// PCG iterations (0 for the direct near-tree solve).
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
}

/// Reusable scratch buffers for [`LaplacianSolver::solve_into`]: one per
/// worker keeps a whole batch of solves allocation-free after the first.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    cg: CgWorkspace,
}

impl SolveScratch {
    /// An empty scratch (buffers are sized on first use).
    pub fn new() -> Self {
        SolveScratch::default()
    }
}

enum Backend {
    TreeDirect(NearTreeSolver),
    Pcg {
        precond: Box<dyn Preconditioner + Send + Sync>,
    },
}

/// A prepared solver for `L x = b` on a fixed connected graph.
///
/// Solutions are always returned mean-zero (the canonical representative
/// in the Laplacian's quotient space); right-hand sides are projected onto
/// the mean-zero subspace first.
pub struct LaplacianSolver {
    op: LaplacianOp,
    backend: Backend,
    opts: SolverOptions,
    method: SolverMethod,
    num_nodes: usize,
}

impl std::fmt::Debug for LaplacianSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaplacianSolver")
            .field("num_nodes", &self.num_nodes)
            .field("method", &self.method)
            .finish()
    }
}

impl LaplacianSolver {
    /// Prepare a solver for the given connected graph.
    ///
    /// `Auto` falls back from the near-tree solve to tree-PCG when the
    /// off-tree capacitance is numerically singular.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] for disconnected graphs, for
    /// empty graphs, or when [`SolverMethod::TreeDirect`] is requested on a
    /// graph with more than 256 off-tree edges or a singular capacitance.
    pub fn new(graph: &Graph, opts: SolverOptions) -> Result<Self, LinalgError> {
        let n = graph.num_nodes();
        if n == 0 {
            return Err(LinalgError::InvalidInput("empty graph".into()));
        }
        if !is_connected(graph) {
            return Err(LinalgError::InvalidInput(
                "laplacian solver requires a connected graph".into(),
            ));
        }
        // Connected, so at least the n − 1 tree edges are present.
        let off_tree = graph.num_edges() + 1 - n;
        let mut method = match opts.method {
            SolverMethod::Auto if graph.density() > 1.4 => SolverMethod::AmgPcg,
            SolverMethod::Auto if off_tree > MAX_OFF_TREE_EDGES => SolverMethod::TreePcg,
            SolverMethod::Auto => SolverMethod::TreeDirect,
            m => m,
        };
        let tree_pcg = || Backend::Pcg {
            precond: Box::new(TreePreconditioner::from_graph(graph)),
        };
        let backend = match method {
            SolverMethod::TreeDirect => {
                if off_tree > MAX_OFF_TREE_EDGES {
                    return Err(LinalgError::InvalidInput(format!(
                        "TreeDirect requested on a graph with {off_tree} off-tree edges \
                         (at most {MAX_OFF_TREE_EDGES})"
                    )));
                }
                match NearTreeSolver::new(graph) {
                    Ok(solver) => Backend::TreeDirect(solver),
                    // Singular off-tree capacitance: Auto still has PCG.
                    Err(_) if opts.method == SolverMethod::Auto => {
                        method = SolverMethod::TreePcg;
                        tree_pcg()
                    }
                    Err(e) => return Err(e),
                }
            }
            SolverMethod::TreePcg => tree_pcg(),
            SolverMethod::AmgPcg => Backend::Pcg {
                precond: Box::new(AmgHierarchy::build(graph, &opts.amg)),
            },
            SolverMethod::JacobiPcg => Backend::Pcg {
                precond: Box::new(JacobiPreconditioner::from_diagonal(
                    &graph.weighted_degrees(),
                )),
            },
            SolverMethod::IcholPcg => Backend::Pcg {
                precond: Box::new(crate::ichol::IncompleteCholesky::new(
                    &sgl_graph::laplacian::laplacian_csr(graph),
                    1e-8,
                )?),
            },
            SolverMethod::Auto => unreachable!("resolved above"),
        };
        Ok(LaplacianSolver {
            op: LaplacianOp::new(graph),
            backend,
            opts,
            method,
            num_nodes: n,
        })
    }

    /// The backend actually in use (after `Auto` resolution).
    pub fn method(&self) -> SolverMethod {
        self.method
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Solve `L x = b`, returning the mean-zero solution.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotConverged`] if PCG hits its iteration cap
    /// and a dimension error for a wrong-sized `b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Ok(self.solve_with_stats(b)?.0)
    }

    /// Solve and report iteration statistics.
    ///
    /// # Errors
    /// See [`LaplacianSolver::solve`].
    pub fn solve_with_stats(&self, b: &[f64]) -> Result<(Vec<f64>, SolverStats), LinalgError> {
        let mut x = vec![0.0; self.num_nodes];
        let stats = self.solve_into(b, &mut x, &mut SolveScratch::new())?;
        Ok((x, stats))
    }

    /// Solve `L x = b` into a caller-provided buffer, drawing all scratch
    /// vectors from a reusable [`SolveScratch`]. This is the hot entry
    /// point of the batched solvers: one scratch per worker makes every
    /// solve after the first allocation-free.
    ///
    /// # Errors
    /// See [`LaplacianSolver::solve`].
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the node count.
    pub fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut SolveScratch,
    ) -> Result<SolverStats, LinalgError> {
        if b.len() != self.num_nodes {
            return Err(LinalgError::DimensionMismatch {
                context: "laplacian solve rhs",
                expected: self.num_nodes,
                actual: b.len(),
            });
        }
        assert_eq!(x.len(), self.num_nodes, "solve_into: x length mismatch");
        match &self.backend {
            Backend::TreeDirect(solver) => {
                solver.solve_into(b, x);
                Ok(SolverStats {
                    iterations: 0,
                    relative_residual: 0.0,
                })
            }
            Backend::Pcg { precond } => {
                let cg_opts = CgOptions {
                    rtol: self.opts.rtol,
                    max_iter: self.opts.max_iter,
                    project_mean: true,
                    // The buffered P·A·P sandwich — same arithmetic as
                    // the old ProjectedOperator wrapper, but through the
                    // workspace instead of a per-iteration clone.
                    project_apply_input: true,
                    ..CgOptions::default()
                };
                let st =
                    pcg_solve_with(&self.op, &precond.as_ref(), b, &cg_opts, &mut scratch.cg, x)?;
                vecops::project_out_mean(x);
                Ok(SolverStats {
                    iterations: st.iterations,
                    relative_residual: st.relative_residual,
                })
            }
        }
    }

    /// Solve for many right-hand sides (columns of `b` as slices),
    /// sequentially through one shared scratch. (The parallel fan-out
    /// lives in `sgl-solver`'s batched backend handles.)
    ///
    /// # Errors
    /// See [`LaplacianSolver::solve`].
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let mut scratch = SolveScratch::new();
        rhs.iter()
            .map(|b| {
                let mut x = vec![0.0; self.num_nodes];
                self.solve_into(b, &mut x, &mut scratch)?;
                Ok(x)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{IterativeBackend, SolverBackend};
    use sgl_datasets::grid2d;
    use sgl_graph::laplacian::laplacian_csr;
    use sgl_linalg::Rng;

    fn verify(g: &Graph, solver: &LaplacianSolver, seed: u64) {
        let n = g.num_nodes();
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = rng.normal_vec(n);
        vecops::project_out_mean(&mut b);
        let x = solver.solve(&b).unwrap();
        let l = laplacian_csr(g);
        let lx = l.matvec(&x);
        let mut r = vecops::sub(&b, &lx);
        vecops::project_out_mean(&mut r);
        assert!(
            vecops::norm2(&r) / vecops::norm2(&b) < 1e-8,
            "relative residual too large"
        );
        assert!(vecops::mean(&x).abs() < 1e-9, "solution must be mean-zero");
    }

    #[test]
    fn auto_on_tree_uses_direct() {
        let g = Graph::from_edges(20, (0..19).map(|i| (i, i + 1, 1.0 + i as f64 * 0.1)));
        let s = LaplacianSolver::new(&g, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::TreeDirect);
        verify(&g, &s, 1);
    }

    #[test]
    fn auto_on_mesh_uses_amg() {
        let g = grid2d(12, 12);
        let s = LaplacianSolver::new(&g, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::AmgPcg);
        verify(&g, &s, 2);
    }

    #[test]
    fn all_backends_agree() {
        let g = grid2d(8, 8);
        let mut rng = Rng::seed_from_u64(5);
        let mut b = rng.normal_vec(64);
        vecops::project_out_mean(&mut b);
        let mut solutions = Vec::new();
        for m in [
            SolverMethod::TreePcg,
            SolverMethod::AmgPcg,
            SolverMethod::JacobiPcg,
            SolverMethod::IcholPcg,
        ] {
            let s = LaplacianSolver::new(
                &g,
                SolverOptions {
                    method: m,
                    ..SolverOptions::default()
                },
            )
            .unwrap();
            solutions.push(s.solve(&b).unwrap());
        }
        for w in solutions.windows(2) {
            let d = vecops::sub(&w[0], &w[1]);
            assert!(vecops::norm2(&d) < 1e-6, "backends disagree");
        }
    }

    /// A random spanning tree on `n` nodes plus exactly `extra` chords,
    /// weights spread over four decades.
    fn near_tree(n: usize, extra: usize, seed: u64) -> Graph {
        let mut rng = Rng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(rng.below(v), v, 10f64.powf(rng.uniform_in(-2.0, 2.0)));
        }
        while g.num_edges() < n - 1 + extra {
            let (u, v) = (rng.below(n), rng.below(n));
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v, 10f64.powf(rng.uniform_in(-2.0, 2.0)));
            }
        }
        g
    }

    #[test]
    fn tree_direct_on_cyclic_graph_errors() {
        // A cycle is a tree plus one off-tree edge: solved exactly.
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let opts = SolverOptions {
            method: SolverMethod::TreeDirect,
            ..SolverOptions::default()
        };
        let s = LaplacianSolver::new(&g, opts.clone()).unwrap();
        verify(&g, &s, 3);
        // Past the off-tree cap the explicit request errors.
        let g = grid2d(20, 20);
        assert!(g.num_edges() + 1 - g.num_nodes() > MAX_OFF_TREE_EDGES);
        assert!(LaplacianSolver::new(&g, opts).is_err());
    }

    #[test]
    fn auto_resolution_at_the_off_tree_cap() {
        let is_direct = |g: &Graph| IterativeBackend::default().build(g).unwrap().is_direct();
        let n = 700;
        let at_cap = near_tree(n, MAX_OFF_TREE_EDGES, 1);
        let s = LaplacianSolver::new(&at_cap, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::TreeDirect);
        assert!(is_direct(&at_cap), "the near-tree solve is a direct base");
        let (_, st) = s.solve_with_stats(&vec![1.0; n]).unwrap();
        assert_eq!(st.iterations, 0);
        verify(&at_cap, &s, 4);

        let past_cap = near_tree(n, MAX_OFF_TREE_EDGES + 1, 1);
        assert!(past_cap.density() <= 1.4);
        let s = LaplacianSolver::new(&past_cap, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::TreePcg);
        assert!(!is_direct(&past_cap));
        verify(&past_cap, &s, 5);

        // Few off-tree edges but denser than 1.4 edges per node: AMG.
        let small_dense = near_tree(20, 10, 2);
        assert!(small_dense.density() > 1.4);
        let s = LaplacianSolver::new(&small_dense, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::AmgPcg);
        assert!(!is_direct(&small_dense));
    }

    #[test]
    fn singular_capacitance_falls_back_to_tree_pcg() {
        // The off-tree edge's inverse weight overflows: the capacitance
        // cannot be factored, so Auto takes tree-PCG and an explicit
        // TreeDirect errors.
        let mut g = Graph::from_edges(30, (0..29).map(|i| (i, i + 1, 1.0)));
        g.add_edge(0, 29, 1e-310);
        let s = LaplacianSolver::new(&g, SolverOptions::default()).unwrap();
        assert_eq!(s.method(), SolverMethod::TreePcg);
        verify(&g, &s, 6);
        let direct = SolverOptions {
            method: SolverMethod::TreeDirect,
            ..SolverOptions::default()
        };
        assert!(LaplacianSolver::new(&g, direct).is_err());
    }

    #[test]
    fn disconnected_graph_errors() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(LaplacianSolver::new(&g, SolverOptions::default()).is_err());
    }

    #[test]
    fn solve_many_matches_individual() {
        let g = grid2d(5, 5);
        let s = LaplacianSolver::new(&g, SolverOptions::default()).unwrap();
        let mut rng = Rng::seed_from_u64(9);
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let mut v = rng.normal_vec(25);
                vecops::project_out_mean(&mut v);
                v
            })
            .collect();
        let many = s.solve_many(&rhs).unwrap();
        for (b, x) in rhs.iter().zip(&many) {
            let single = s.solve(b).unwrap();
            let d = vecops::sub(x, &single);
            assert!(vecops::norm2(&d) < 1e-12);
        }
    }
}
