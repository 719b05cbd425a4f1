//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes (a fixed single-threaded loop on the reference
//! 2-core host ranged 92–150 ms between one-second blocks). To keep the
//! reported times comparable across runs, a fixed reference kernel —
//! plain Rust, independent of every library crate — is timed right
//! before and after each measured operation, and the operation's time is
//! scaled by `REFERENCE_MS / reference time`: the time the operation
//! would have taken on a host running the reference kernel in
//! `REFERENCE_MS`. Rates scale by the inverse factor. The raw figures
//! are printed beside the scaled ones.
//!
//! The kernel runs on one thread, and for an operation that forks also
//! on all of its threads at once: one vCPU can be slow while the other
//! is not, which stretches short parallel regions (session set-up) far
//! more than long mostly-serial stretches (the learn loop), so each
//! figure takes the factor of its own shape.

use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// Nominal reference-kernel time, milliseconds (roughly its time on the
/// reference host in its fast state).
pub const REFERENCE_MS: f64 = 3.0;

/// Reference samples taken on each side of a measured operation.
const SAMPLES: usize = 3;

/// Side of the reference kernel's matrix.
const N: usize = 160;

/// The kernel's read-only inputs: the matrix and the buffer.
fn data() -> &'static (Vec<f64>, Vec<f64>) {
    static DATA: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
    DATA.get_or_init(|| {
        (
            (0..N * N)
                .map(|i| ((i * 7919) % 1009) as f64 * 1e-3)
                .collect(),
            (0..(1 << 19)).map(|i| (i % 97) as f64).collect(),
        )
    })
}

/// One run of the reference kernel: repeated 160 × 160 dense
/// matrix-vector products (cache-resident floating point) and a strided
/// pass over a 4 MiB buffer (memory traffic), about 3 ms.
fn reference_ms() -> f64 {
    let (a, buf) = data();
    let t = Instant::now();
    let mut x = vec![1.0f64; N];
    let mut y = vec![0.0f64; N];
    for _ in 0..120 {
        for i in 0..N {
            let row = &a[i * N..(i + 1) * N];
            y[i] = row.iter().zip(&x).map(|(p, q)| p * q).sum();
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    let mut acc = 0.0;
    for k in 0..8 {
        acc += buf.iter().skip(k).step_by(8).sum::<f64>();
    }
    std::hint::black_box((&x, acc));
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall time of the reference kernel run once on each of `threads`
/// threads at the same time.
fn reference_wall_ms(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_ms();
    }
    data();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(reference_ms);
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Reference samples bracketing one measured operation.
pub struct Bracket {
    threads: usize,
    one: Vec<f64>,
    all: Vec<f64>,
}

/// Scale factors of one bracketed operation.
#[derive(Debug, Clone, Copy)]
pub struct Factors {
    /// From the kernel on one thread.
    pub one: f64,
    /// From the kernel on every thread the operation used (equal to
    /// `one` for a single-threaded operation).
    pub all: f64,
}

impl Bracket {
    /// Take the "before" samples, on one thread and on `threads`.
    pub fn open(threads: usize) -> Self {
        let mut b = Bracket {
            threads,
            one: Vec::new(),
            all: Vec::new(),
        };
        b.sample();
        b
    }

    fn sample(&mut self) {
        for _ in 0..SAMPLES {
            self.one.push(reference_wall_ms(1));
            if self.threads > 1 {
                self.all.push(reference_wall_ms(self.threads));
            }
        }
    }

    /// Take the "after" samples and return the scale factors for times
    /// measured in between.
    pub fn close(mut self) -> Factors {
        self.sample();
        let one = REFERENCE_MS / median(&self.one);
        let all = if self.all.is_empty() {
            one
        } else {
            REFERENCE_MS / median(&self.all)
        };
        Factors { one, all }
    }
}

/// Run `f`, which uses up to `threads` threads, between two reference
/// brackets; returns its result and the scale factors.
pub fn calibrated<T>(threads: usize, f: impl FnOnce() -> T) -> (T, Factors) {
    let b = Bracket::open(threads);
    let out = f();
    (out, b.close())
}
