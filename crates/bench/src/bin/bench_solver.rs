//! Offline solver-layer benchmark: `solve_batch` vs sequential `solve`
//! across backends, plus handle-setup cost, and a near-tree sweep — the
//! exact near-tree solve vs tree-preconditioned PCG on a grid's maximum
//! spanning tree plus `k` of its off-tree edges, which locates the
//! off-tree count where `Auto` should stop solving directly. Emitted as
//! `target/repro/BENCH_solver.json` for CI trend tracking.
//!
//! Usage: `bench_solver [--side 32] [--m 32] [--reps 5] [--quick]`

use sgl_bench::{banner, repro_dir, Args, Table};
use sgl_graph::mst::maximum_spanning_tree;
use sgl_graph::Graph;
use sgl_linalg::{vecops, Rng};
use sgl_solver::{
    LaplacianSolver, NearTreeSolver, PolicyMethod, SolveScratch, SolverMethod, SolverOptions,
    SolverPolicy,
};
use std::io::Write;
use std::time::Instant;

/// Off-tree edge counts of the near-tree sweep; 512 brackets the
/// crossover above the 256-edge cap.
const OFF_TREE_COUNTS: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

fn rhs_batch(n: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let mut b = rng.normal_vec(n);
            vecops::project_out_mean(&mut b);
            b
        })
        .collect()
}

/// Best-of-`reps` wall-clock seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// One near-tree sweep point: both solvers on the same graph, every
/// right-hand side solved serially.
struct NearTreeRow {
    off_tree: usize,
    direct_build_s: f64,
    direct_batch_s: f64,
    pcg_build_s: f64,
    pcg_batch_s: f64,
    pcg_iters_per_rhs: f64,
}

/// A `side × side` grid with weights spread over two decades, split into
/// its maximum spanning tree (edge indices) and its off-tree edges in a
/// seeded random order.
fn weighted_grid(side: usize, seed: u64) -> (Graph, Vec<usize>, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = sgl_datasets::grid2d(side, side);
    for i in 0..g.num_edges() {
        g.set_weight(i, 10f64.powf(rng.uniform_in(-1.0, 1.0)));
    }
    let st = maximum_spanning_tree(&g);
    let mut off = st.off_tree_edges();
    rng.shuffle(&mut off);
    (g, st.edge_indices, off)
}

fn near_tree_sweep(side: usize, rhs: &[Vec<f64>], reps: usize) -> Vec<NearTreeRow> {
    let (grid, tree, off) = weighted_grid(side, 11);
    let n = grid.num_nodes();
    let pcg_opts = SolverOptions {
        method: SolverMethod::TreePcg,
        ..SolverOptions::default()
    };
    let mut rows = Vec::new();
    for k in OFF_TREE_COUNTS.into_iter().filter(|&k| k <= off.len()) {
        let mut edges = tree.clone();
        edges.extend_from_slice(&off[..k]);
        let g = grid.edge_subgraph(&edges);
        let direct_build_s = best_of(reps, || {
            NearTreeSolver::new(&g).unwrap();
        });
        let direct = NearTreeSolver::new(&g).unwrap();
        let mut x = vec![0.0; n];
        let direct_batch_s = best_of(reps, || {
            for b in rhs {
                direct.solve_into(b, &mut x);
            }
        });
        let pcg_build_s = best_of(reps, || {
            LaplacianSolver::new(&g, pcg_opts.clone()).unwrap();
        });
        let pcg = LaplacianSolver::new(&g, pcg_opts.clone()).unwrap();
        let mut scratch = SolveScratch::new();
        let mut iters = 0;
        let pcg_batch_s = best_of(reps, || {
            iters = 0;
            for b in rhs {
                iters += pcg.solve_into(b, &mut x, &mut scratch).unwrap().iterations;
            }
        });
        rows.push(NearTreeRow {
            off_tree: k,
            direct_build_s,
            direct_batch_s,
            pcg_build_s,
            pcg_batch_s,
            pcg_iters_per_rhs: iters as f64 / rhs.len() as f64,
        });
    }
    rows
}

struct Row {
    method: PolicyMethod,
    nodes: usize,
    rhs: usize,
    setup_s: f64,
    batch_s: f64,
    sequential_s: f64,
}

fn main() {
    let args = Args::from_env();
    let side: usize = args.get("side", if args.has("quick") { 16 } else { 32 });
    let m: usize = args.get("m", 32);
    let reps: usize = args.get("reps", 5);
    banner(
        "BENCH solver",
        "solve_batch vs sequential solve per backend",
        &[
            ("side", side.to_string()),
            ("M", m.to_string()),
            ("reps", reps.to_string()),
        ],
    );

    let g = sgl_datasets::grid2d(side, side);
    let n = g.num_nodes();
    let rhs = rhs_batch(n, m, 5);
    let mut rows = Vec::new();
    for method in [
        PolicyMethod::Auto,
        PolicyMethod::TreePcg,
        PolicyMethod::AmgPcg,
        PolicyMethod::JacobiPcg,
        PolicyMethod::IcholPcg,
        PolicyMethod::DenseCholesky,
    ] {
        let policy = SolverPolicy {
            dense_max_nodes: 0,
            ..SolverPolicy::default().with_method(method)
        };
        let setup_s = best_of(reps, || {
            policy.build_handle(&g).unwrap();
        });
        let handle = policy.build_handle(&g).unwrap();
        let batch_s = best_of(reps, || {
            handle.solve_batch(&rhs).unwrap();
        });
        let sequential_s = best_of(reps, || {
            for b in &rhs {
                handle.solve(b).unwrap();
            }
        });
        rows.push(Row {
            method,
            nodes: n,
            rhs: m,
            setup_s,
            batch_s,
            sequential_s,
        });
    }

    let mut table = Table::new(&["method", "N", "M", "setup_s", "batch_s", "sequential_s"]);
    for r in &rows {
        table.row(&[
            format!("{:?}", r.method),
            r.nodes.to_string(),
            r.rhs.to_string(),
            format!("{:.6}", r.setup_s),
            format!("{:.6}", r.batch_s),
            format!("{:.6}", r.sequential_s),
        ]);
    }
    table.print();

    let near_tree = near_tree_sweep(side, &rhs, reps);
    println!(
        "\nnear-tree sweep: {side}x{side} grid spanning tree + k off-tree edges, {m} RHS, serial"
    );
    let mut table = Table::new(&[
        "k",
        "direct_build_s",
        "direct_batch_s",
        "pcg_build_s",
        "pcg_batch_s",
        "pcg_iters/rhs",
    ]);
    for r in &near_tree {
        table.row(&[
            r.off_tree.to_string(),
            format!("{:.6}", r.direct_build_s),
            format!("{:.6}", r.direct_batch_s),
            format!("{:.6}", r.pcg_build_s),
            format!("{:.6}", r.pcg_batch_s),
            format!("{:.1}", r.pcg_iters_per_rhs),
        ]);
    }
    table.print();
    match near_tree
        .iter()
        .find(|r| r.direct_build_s + r.direct_batch_s >= r.pcg_build_s + r.pcg_batch_s)
    {
        Some(r) => println!(
            "crossover: tree-PCG is as fast as the direct solve (build + {m} RHS) from k = {}",
            r.off_tree
        ),
        None => println!("crossover: the direct solve wins at every k of the sweep"),
    }

    // Hand-rolled JSON (no serde in the offline image).
    let mut json = String::from("{\n  \"bench\": \"solver\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"method\": \"{:?}\", \"nodes\": {}, \"rhs\": {}, \
             \"setup_s\": {:.9}, \"batch_s\": {:.9}, \"sequential_s\": {:.9}}}{}\n",
            r.method,
            r.nodes,
            r.rhs,
            r.setup_s,
            r.batch_s,
            r.sequential_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"near_tree\": [\n");
    for (i, r) in near_tree.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"off_tree\": {}, \"direct_build_s\": {:.9}, \"direct_batch_s\": {:.9}, \
             \"pcg_build_s\": {:.9}, \"pcg_batch_s\": {:.9}, \"pcg_iters_per_rhs\": {:.2}}}{}\n",
            r.off_tree,
            r.direct_build_s,
            r.direct_batch_s,
            r.pcg_build_s,
            r.pcg_batch_s,
            r.pcg_iters_per_rhs,
            if i + 1 < near_tree.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = repro_dir().join("BENCH_solver.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_solver.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_solver.json");
    println!("\nwrote {}", path.display());
}
