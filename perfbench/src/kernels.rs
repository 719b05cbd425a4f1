//! Kernel crossover probes of the traced run. They report numbers and
//! change no cutoff:
//!
//! * `SpectralSketch::build` on its dense path against
//!   `SpectralSketch::build_filtered`, and a bare dense `SymEig`, at node
//!   counts bracketing `SpectralSketch::DENSE_CUTOFF`;
//! * the CSR Laplacian matvec of a learned graph, in ns per stored
//!   nonzero, with the bytes one matvec moves (computed, not measured);
//! * the dispatch cost of one `par` region at 1 thread and at nproc.

use std::time::Instant;

use sgl_core::SpectralSketch;
use sgl_graph::laplacian::laplacian_csr;
use sgl_graph::Graph;
use sgl_linalg::filter::FilteredSpectrumOptions;
use sgl_linalg::{par, SymEig};

use crate::stats::median;

/// Node counts of the sketch/symeig crossover, bracketing
/// `DENSE_CUTOFF` (512): 16 × {24, 32, 40} grids.
pub const CROSSOVER_SIDES: [usize; 3] = [24, 32, 40];

/// Median wall of `reps` calls of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// One crossover size.
#[derive(Debug, Clone, Copy)]
pub struct Crossover {
    pub nodes: usize,
    pub sketch_dense_ms: f64,
    pub sketch_filtered_ms: f64,
    pub symeig_ms: f64,
}

pub fn crossover() -> Result<Vec<Crossover>, String> {
    CROSSOVER_SIDES
        .iter()
        .map(|&side| {
            let g = sgl_datasets::grid2d(16, side);
            let n = g.num_nodes();
            let mut err = None;
            // Width n - 1 forces the dense path at every size; the dense
            // kernels run long enough that one call is a steady sample.
            let sketch_dense_ms = time_ms(1, || {
                if let Err(e) = SpectralSketch::build(&g, n - 1, 1) {
                    err = Some(e.to_string());
                }
            });
            let opts = FilteredSpectrumOptions::default();
            let sketch_filtered_ms = time_ms(3, || {
                if let Err(e) = SpectralSketch::build_filtered(&g, 0, 1, None, &opts) {
                    err = Some(e.to_string());
                }
            });
            let dense = laplacian_csr(&g).to_dense();
            let symeig_ms = time_ms(1, || {
                if let Err(e) = SymEig::compute(&dense) {
                    err = Some(e.to_string());
                }
            });
            match err {
                Some(e) => Err(format!("crossover at {n} nodes: {e}")),
                None => Ok(Crossover {
                    nodes: n,
                    sketch_dense_ms,
                    sketch_filtered_ms,
                    symeig_ms,
                }),
            }
        })
        .collect()
}

/// CSR matvec throughput on one graph's Laplacian.
#[derive(Debug, Clone, Copy)]
pub struct Matvec {
    pub nnz: usize,
    pub ns_per_nnz: f64,
    /// Bytes one matvec reads and writes: values, column indices and
    /// gathered `x` per nonzero, row pointers and `y` per row.
    pub bytes: usize,
    pub gb_per_s: f64,
}

pub fn matvec(g: &Graph) -> Matvec {
    let l = laplacian_csr(g);
    let n = l.nrows();
    let nnz = l.nnz();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; n];
    let word = std::mem::size_of::<f64>();
    let index = std::mem::size_of::<usize>();
    let bytes = nnz * (word + index + word) + n * (index + word);
    // Enough repetitions for ~50 ms per sample, five samples.
    let calib = Instant::now();
    l.matvec_into(&x, &mut y);
    let one = calib.elapsed().as_secs_f64().max(1e-7);
    let reps = ((0.05 / one) as usize).clamp(1, 1_000_000);
    let mut ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            l.matvec_into(std::hint::black_box(&x), &mut y);
        }
        ns.push(t.elapsed().as_secs_f64() * 1e9 / reps as f64);
    }
    std::hint::black_box(&y);
    let per_call = median(&ns);
    Matvec {
        nnz,
        ns_per_nnz: per_call / nnz as f64,
        bytes,
        gb_per_s: bytes as f64 / per_call,
    }
}

/// Microseconds per `par::map_indexed` region of `threads` one-item
/// chunks, under an explicit thread count.
pub fn par_dispatch_us(threads: usize) -> f64 {
    let regions = 2000;
    let mut us = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        par::with_threads(threads, || {
            for r in 0..regions {
                std::hint::black_box(par::map_indexed(threads, 1, |i| i + r));
            }
        });
        us.push(t.elapsed().as_secs_f64() * 1e6 / regions as f64);
    }
    median(&us)
}
