//! Cross-crate consistency: all Laplacian solver backends and both
//! eigensolver families must agree with each other and with dense
//! reference computations.

use sgl_core::{
    pairwise_effective_resistances, sample_node_pairs, smallest_nonzero_eigenvalues,
    spectral_embedding, EmbeddingOptions, PolicyMethod, ResistanceSketch, SolverPolicy,
    SpectralSketch, SpectrumMethod,
};
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::Graph;
use sgl_linalg::{vecops, Rng, SymEig};
use sgl_solver::{AmgHierarchy, AmgOptions, LaplacianSolver, SolverMethod, SolverOptions};

fn mean_zero_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = rng.normal_vec(n);
    vecops::project_out_mean(&mut b);
    b
}

/// A random connected graph: a random spanning tree plus `extra`
/// chords, weights spread over `decades` orders of magnitude.
fn random_connected_graph(n: usize, extra: usize, decades: f64, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(
            rng.below(v),
            v,
            10f64.powf(rng.uniform_in(-decades, decades)),
        );
    }
    let mut added = 0;
    for _ in 0..20 * extra {
        if added == extra {
            break;
        }
        let (u, v) = (rng.below(n), rng.below(n));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, 10f64.powf(rng.uniform_in(-decades, decades)));
            added += 1;
        }
    }
    g
}

#[test]
fn all_solver_backends_agree_on_meshes_and_circuits() {
    let cases = [
        sgl_datasets::grid2d(9, 9),
        sgl_datasets::circuit_grid(9, 9, 1.7, 1),
        sgl_datasets::fe_plate_mesh(250, 2).graph,
    ];
    for (ci, g) in cases.iter().enumerate() {
        let b = mean_zero_rhs(g.num_nodes(), ci as u64);
        let mut solutions = Vec::new();
        for m in [
            SolverMethod::TreePcg,
            SolverMethod::AmgPcg,
            SolverMethod::JacobiPcg,
        ] {
            let s = LaplacianSolver::new(
                g,
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
            assert!(
                vecops::norm2(&d) / vecops::norm2(&w[0]) < 1e-6,
                "case {ci}: backends disagree"
            );
        }
    }
}

#[test]
fn solver_matches_dense_pseudoinverse() {
    // A mesh and seeded random connected graphs against the dense
    // pseudo-inverse: solves, exact resistances and the full-width
    // spectral sketch match it; the JL sketch at the eq.-18 projection
    // count stays within (1 ± ε); a truncated embedding distance never
    // exceeds the resistance (eq. 20).
    let eps = 0.5;
    let mut cases = vec![(sgl_datasets::grid2d(6, 6), 7u64)];
    for seed in [3u64, 11, 19, 27] {
        let g = random_connected_graph(10 + seed as usize % 9, 4, 0.5, seed);
        cases.push((g, seed));
    }
    for (g, seed) in &cases {
        let seed = *seed;
        let n = g.num_nodes();
        let b = mean_zero_rhs(n, seed);
        let solver = LaplacianSolver::new(g, SolverOptions::default()).unwrap();
        let x = solver.solve(&b).unwrap();
        let eig = SymEig::compute(&laplacian_csr(g).to_dense()).unwrap();
        let mut x_ref = vec![0.0; n];
        for k in 1..n {
            let v = eig.vectors.column(k);
            let c = vecops::dot(&v, &b) / eig.values[k];
            vecops::axpy(c, &v, &mut x_ref);
        }
        let d = vecops::norm2(&vecops::sub(&x, &x_ref));
        assert!(d < 1e-7, "seed {seed}: dense mismatch {d}");

        let pairs = sample_node_pairs(n, 6, seed);
        let exact = pairwise_effective_resistances(g, &pairs).unwrap();
        let spectral = SpectralSketch::build(g, 0, seed).unwrap();
        let q = ResistanceSketch::recommended_projections(n, eps);
        let jl = ResistanceSketch::build(g, q, seed ^ 0x9E37).unwrap();
        let emb = spectral_embedding(g, 3, 0.0, &EmbeddingOptions::default()).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let r: f64 = (1..n)
                .map(|k| (eig.vectors.get(s, k) - eig.vectors.get(t, k)).powi(2) / eig.values[k])
                .sum();
            assert!(
                (exact[k] - r).abs() <= 1e-6 * (1.0 + r),
                "seed {seed}: exact ({s},{t})"
            );
            let est = spectral.estimate(s, t).unwrap();
            assert!(
                (est - r).abs() <= 1e-5 * (1.0 + r),
                "seed {seed}: spectral ({s},{t})"
            );
            let est = jl.estimate(s, t).unwrap();
            assert!(
                est >= (1.0 - eps) * r && est <= (1.0 + eps) * r,
                "seed {seed}: jl ({s},{t}) {est} outside (1±ε)·{r}"
            );
            let z = emb.distance_sq(s, t);
            assert!(
                z <= r * (1.0 + 1e-6) + 1e-9,
                "seed {seed}: z^emb {z} > R_eff {r}"
            );
        }
    }
}

#[test]
fn near_tree_solve_matches_dense_pseudoinverse() {
    // Spanning trees plus 1, 16 and 64 off-tree edges, weights over four
    // decades: `Auto` solves them directly (no iteration) and must match
    // the dense pseudo-inverse to 1e-9 relative.
    for (extra, seed) in [(1usize, 101u64), (16, 102), (64, 103), (64, 104)] {
        let n = 200;
        let g = random_connected_graph(n, extra, 2.0, seed);
        assert_eq!(g.num_edges(), n - 1 + extra);
        let handle = SolverPolicy::default().build_handle(&g).unwrap();
        assert_eq!(
            handle.method_name(),
            "tree-direct",
            "{extra} off-tree edges"
        );
        let eig = SymEig::compute(&laplacian_csr(&g).to_dense()).unwrap();
        let rhs: Vec<Vec<f64>> = (0..3).map(|k| mean_zero_rhs(n, seed * 10 + k)).collect();
        let xs = handle.solve_batch(&rhs).unwrap();
        assert_eq!(handle.stats().iterations, 0);
        for (b, x) in rhs.iter().zip(&xs) {
            let mut x_ref = vec![0.0; n];
            for k in 1..n {
                let v = eig.vectors.column(k);
                let c = vecops::dot(&v, b) / eig.values[k];
                vecops::axpy(c, &v, &mut x_ref);
            }
            let rel = vecops::norm2(&vecops::sub(x, &x_ref)) / vecops::norm2(&x_ref);
            assert!(rel < 1e-9, "{extra} off-tree edges, seed {seed}: {rel:.3e}");
        }
    }
}

#[test]
fn eigenvalue_methods_agree_with_dense() {
    let g = sgl_datasets::circuit_grid(8, 8, 1.7, 3);
    let dense = SymEig::compute(&laplacian_csr(&g).to_dense()).unwrap();
    let a = smallest_nonzero_eigenvalues(&g, 6, SpectrumMethod::Direct).unwrap();
    let b = smallest_nonzero_eigenvalues(&g, 6, SpectrumMethod::ShiftInvert).unwrap();
    for k in 0..6 {
        assert!(
            (a[k] - dense.values[k + 1]).abs() < 1e-6 * dense.values[k + 1].max(1.0),
            "direct eig {k}"
        );
        assert!(
            (b[k] - dense.values[k + 1]).abs() < 1e-6 * dense.values[k + 1].max(1.0),
            "shift-invert eig {k}"
        );
    }
}

#[test]
fn weighted_graphs_are_handled() {
    // Heterogeneous weights (6 decades) on random connected graphs: every
    // policy method must agree with the dense Cholesky reference, and the
    // AMG V-cycle must stay a valid (symmetric, positive) preconditioner.
    for seed in [5u64, 17, 29, 41] {
        let n = 20 + (seed as usize % 11);
        let g = random_connected_graph(n, n / 2, 3.0, seed);
        let b = mean_zero_rhs(n, seed ^ 6);
        let reference = SolverPolicy::default()
            .with_method(PolicyMethod::DenseCholesky)
            .build_handle(&g)
            .unwrap()
            .solve(&b)
            .unwrap();
        for method in [
            PolicyMethod::Auto,
            PolicyMethod::TreePcg,
            PolicyMethod::AmgPcg,
            PolicyMethod::JacobiPcg,
            PolicyMethod::IcholPcg,
        ] {
            let x = SolverPolicy::default()
                .with_method(method)
                .build_handle(&g)
                .unwrap()
                .solve(&b)
                .unwrap();
            let d = vecops::sub(&x, &reference);
            assert!(
                vecops::norm2(&d) / vecops::norm2(&reference) < 1e-6,
                "seed {seed}: {method:?} disagrees with the dense reference"
            );
        }

        let h = AmgHierarchy::build(&g, &AmgOptions::default());
        let (a, c) = (mean_zero_rhs(n, seed ^ 3), mean_zero_rhs(n, seed ^ 4));
        let (ma, mc) = (h.v_cycle(&a), h.v_cycle(&c));
        let scale = vecops::norm2(&a) * vecops::norm2(&mc) + vecops::norm2(&c) * vecops::norm2(&ma);
        assert!(
            (vecops::dot(&a, &mc) - vecops::dot(&c, &ma)).abs() < 1e-9 * scale,
            "seed {seed}: V-cycle not symmetric"
        );
        assert!(vecops::dot(&a, &ma) > 0.0 && vecops::dot(&c, &mc) > 0.0);
    }
}
