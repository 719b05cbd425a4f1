//! Voltage/current measurement generation and transformation.
//!
//! Reproduces §III.A of the paper: `M` random current excitation vectors
//! (standard normal, orthogonalized against **1**, normalized) are pushed
//! through the ground-truth Laplacian, `L* x_i = y_i`, and the resulting
//! voltage responses become the columns of `X`. Also implements:
//!
//! * the Johnson–Lindenstrauss edge-projection construction of §II.D
//!   (`Y = C W^{1/2} B`), which guarantees `‖X^T e_{s,t}‖²` approximates
//!   every effective resistance within `1 ± ε`;
//! * the multiplicative noise model of Fig. 9
//!   (`x̃ = x + ζ ‖x‖ ε̂`);
//! * row-subset extraction for the reduced-network experiments of Fig. 8.
//!
//! Internally both `X` and `Y` are stored row-major per *node* (`N × M`),
//! so a node's measurement profile is a contiguous row.

use crate::error::SglError;
use sgl_graph::Graph;
use sgl_linalg::{vecops, DenseMatrix, Rng};
use sgl_solver::SolverPolicy;

/// A set of `M` linear measurements on an `N`-node resistor network.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Voltage matrix, `N × M` (row `u` = node `u`'s voltages).
    x: DenseMatrix,
    /// Current matrix, `N × M`, if current excitations are known.
    y: Option<DenseMatrix>,
}

/// Ingest-boundary validation: every entry of a measurement matrix must
/// be finite. A single NaN/inf poisons every inner product downstream
/// (kNN distances, sensitivities, solves), so it is rejected here at
/// the boundary rather than surfacing as a solver breakdown later.
fn ensure_finite(name: &str, m: &DenseMatrix) -> Result<(), SglError> {
    match m.as_slice().iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(SglError::InvalidMeasurements(format!(
            "{name} matrix contains a non-finite entry at flat index {i}"
        ))),
    }
}

impl Measurements {
    /// Wrap voltage and current matrices.
    ///
    /// # Errors
    /// Returns [`SglError::InvalidMeasurements`] on shape mismatch,
    /// empty matrices, or non-finite (NaN/inf) entries.
    pub fn new(x: DenseMatrix, y: DenseMatrix) -> Result<Self, SglError> {
        if x.nrows() == 0 || x.ncols() == 0 {
            return Err(SglError::InvalidMeasurements("empty voltage matrix".into()));
        }
        if x.nrows() != y.nrows() || x.ncols() != y.ncols() {
            return Err(SglError::InvalidMeasurements(format!(
                "voltage matrix is {}×{} but current matrix is {}×{}",
                x.nrows(),
                x.ncols(),
                y.nrows(),
                y.ncols()
            )));
        }
        ensure_finite("voltage", &x)?;
        ensure_finite("current", &y)?;
        Ok(Measurements { x, y: Some(y) })
    }

    /// Wrap a voltage-only measurement set (no current excitations; the
    /// edge-scaling step will be skipped).
    ///
    /// # Errors
    /// Returns [`SglError::InvalidMeasurements`] for an empty matrix or
    /// non-finite (NaN/inf) entries.
    pub fn from_voltages(x: DenseMatrix) -> Result<Self, SglError> {
        if x.nrows() == 0 || x.ncols() == 0 {
            return Err(SglError::InvalidMeasurements("empty voltage matrix".into()));
        }
        ensure_finite("voltage", &x)?;
        Ok(Measurements { x, y: None })
    }

    /// Simulate `m` measurements on a ground-truth network following the
    /// paper's experimental setup (§III.A).
    ///
    /// # Errors
    /// Propagates solver failures; rejects disconnected graphs and
    /// `m == 0`.
    pub fn generate(graph: &Graph, m: usize, seed: u64) -> Result<Self, SglError> {
        Self::generate_with(graph, m, seed, &SolverPolicy::default())
    }

    /// [`Measurements::generate`] with an explicit solver policy. The
    /// `m` excitation vectors are assembled up front and solved in one
    /// [`solve_batch`](sgl_solver::SolverHandle::solve_batch) call on a
    /// policy-built handle.
    ///
    /// # Errors
    /// See [`Measurements::generate`].
    pub fn generate_with(
        graph: &Graph,
        m: usize,
        seed: u64,
        policy: &SolverPolicy,
    ) -> Result<Self, SglError> {
        if m == 0 {
            return Err(SglError::InvalidMeasurements(
                "need at least one measurement".into(),
            ));
        }
        let n = graph.num_nodes();
        let handle = policy.build_handle(graph)?;
        let mut rng = Rng::seed_from_u64(seed);
        let mut currents = Vec::with_capacity(m);
        for _ in 0..m {
            // Standard-normal current vector, mean-projected and normalized.
            let mut cur = rng.normal_vec(n);
            vecops::project_out_mean(&mut cur);
            if vecops::normalize(&mut cur) == 0.0 {
                return Err(SglError::InvalidMeasurements(
                    "degenerate current vector".into(),
                ));
            }
            currents.push(cur);
        }
        let voltages = handle.solve_batch(&currents)?;
        let mut x = DenseMatrix::zeros(n, m);
        let mut y = DenseMatrix::zeros(n, m);
        for j in 0..m {
            x.set_column(j, &voltages[j]);
            y.set_column(j, &currents[j]);
        }
        Ok(Measurements { x, y: Some(y) })
    }

    /// The Johnson–Lindenstrauss construction of §II.D: `C` is a random
    /// `±1/√m` matrix over the edges, `Y = C W^{1/2} B`, and each voltage
    /// column solves `L* x_i = y_i`. With `m ≥ 24 ln N / ε²` the squared
    /// row distances of `X` approximate all effective resistances within
    /// `1 ± ε`.
    ///
    /// # Errors
    /// See [`Measurements::generate`].
    pub fn generate_jl(graph: &Graph, m: usize, seed: u64) -> Result<Self, SglError> {
        Self::generate_jl_with(graph, m, seed, &SolverPolicy::default())
    }

    /// [`Measurements::generate_jl`] with an explicit solver policy
    /// (one batched solve for all `m` projections).
    ///
    /// # Errors
    /// See [`Measurements::generate`].
    pub fn generate_jl_with(
        graph: &Graph,
        m: usize,
        seed: u64,
        policy: &SolverPolicy,
    ) -> Result<Self, SglError> {
        if m == 0 {
            return Err(SglError::InvalidMeasurements(
                "need at least one measurement".into(),
            ));
        }
        let n = graph.num_nodes();
        let handle = policy.build_handle(graph)?;
        let mut rng = Rng::seed_from_u64(seed);
        let scale = 1.0 / (m as f64).sqrt();
        let mut currents = Vec::with_capacity(m);
        for _ in 0..m {
            // Row j of C W^{1/2} B, assembled edge by edge:
            // y = Σ_e c_e √w_e (e_u − e_v). Orthogonal to 1 by
            // construction.
            let mut cur = vec![0.0; n];
            for e in graph.edges() {
                let c = rng.rademacher() * scale * e.weight.sqrt();
                cur[e.u] += c;
                cur[e.v] -= c;
            }
            currents.push(cur);
        }
        let voltages = handle.solve_batch(&currents)?;
        let mut x = DenseMatrix::zeros(n, m);
        let mut y = DenseMatrix::zeros(n, m);
        for j in 0..m {
            x.set_column(j, &voltages[j]);
            y.set_column(j, &currents[j]);
        }
        Ok(Measurements { x, y: Some(y) })
    }

    /// Recommended JL sample count `⌈24 ln N / ε²⌉` (eq. 18).
    pub fn jl_sample_count(num_nodes: usize, epsilon: f64) -> usize {
        assert!(epsilon > 0.0, "epsilon must be positive");
        ((24.0 * (num_nodes.max(2) as f64).ln()) / (epsilon * epsilon)).ceil() as usize
    }

    /// Number of nodes `N`.
    pub fn num_nodes(&self) -> usize {
        self.x.nrows()
    }

    /// Number of measurements `M`.
    pub fn num_measurements(&self) -> usize {
        self.x.ncols()
    }

    /// The voltage matrix (`N × M`, node-major rows).
    pub fn voltages(&self) -> &DenseMatrix {
        &self.x
    }

    /// The current matrix if available.
    pub fn currents(&self) -> Option<&DenseMatrix> {
        self.y.as_ref()
    }

    /// Voltage column `i` (the response to excitation `i`).
    pub fn voltage_vector(&self, i: usize) -> Vec<f64> {
        self.x.column(i)
    }

    /// Squared measurement-space distance `z^data_{s,t} = ‖X^T e_{s,t}‖²`.
    pub fn data_distance_sq(&self, s: usize, t: usize) -> f64 {
        vecops::dist_sq(self.x.row(s), self.x.row(t))
    }

    /// Apply the Fig. 9 noise model to the voltages: each column becomes
    /// `x̃ = x + ζ ‖x‖ ε̂` with `ε̂` a unit Gaussian direction. Currents
    /// are kept unchanged.
    ///
    /// # Panics
    /// Panics if `zeta` is negative.
    pub fn with_noise(&self, zeta: f64, seed: u64) -> Measurements {
        assert!(zeta >= 0.0, "noise level must be non-negative");
        if zeta == 0.0 {
            return self.clone();
        }
        let mut rng = Rng::seed_from_u64(seed);
        let n = self.num_nodes();
        let mut x = self.x.clone();
        for j in 0..x.ncols() {
            let col = x.column(j);
            let norm = vecops::norm2(&col);
            let mut eps = rng.normal_vec(n);
            vecops::normalize(&mut eps);
            let mut noisy = col;
            vecops::axpy(zeta * norm, &eps, &mut noisy);
            x.set_column(j, &noisy);
        }
        Measurements {
            x,
            y: self.y.clone(),
        }
    }

    /// Concatenate a later measurement batch column-wise: the result has
    /// the same `N` nodes and `M₁ + M₂` excitations. Currents are kept
    /// only when both batches carry them (a voltage-only batch degrades
    /// the union to voltage-only). This is the substrate of
    /// [`SglSession::extend_measurements`](crate::SglSession::extend_measurements).
    ///
    /// # Errors
    /// Returns [`SglError::InvalidMeasurements`] on node-count mismatch
    /// or a non-finite entry in the later batch (streamed batches are an
    /// ingest boundary — see [`SglSession::extend_measurements`](crate::SglSession::extend_measurements)
    /// and `sgl-serve`'s quarantine path).
    pub fn hstack(&self, later: &Measurements) -> Result<Measurements, SglError> {
        if later.num_nodes() != self.num_nodes() {
            return Err(SglError::InvalidMeasurements(format!(
                "cannot stack a {}-node batch onto {}-node measurements",
                later.num_nodes(),
                self.num_nodes()
            )));
        }
        ensure_finite("voltage", &later.x)?;
        if let Some(y) = &later.y {
            ensure_finite("current", y)?;
        }
        fn hcat(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
            let cols: Vec<Vec<f64>> = (0..a.ncols())
                .map(|j| a.column(j))
                .chain((0..b.ncols()).map(|j| b.column(j)))
                .collect();
            DenseMatrix::from_columns(&cols)
        }
        let y = match (&self.y, &later.y) {
            (Some(a), Some(b)) => Some(hcat(a, b)),
            _ => None,
        };
        Ok(Measurements {
            x: hcat(&self.x, &later.x),
            y,
        })
    }

    /// Keep only the given node rows (Fig. 8 reduced-network learning).
    /// Currents are dropped: the paper's reduction uses voltages only.
    ///
    /// # Panics
    /// Panics if `indices` is empty or contains out-of-range entries.
    pub fn subset_rows(&self, indices: &[usize]) -> Measurements {
        assert!(!indices.is_empty(), "subset must keep at least one node");
        Measurements {
            x: self.x.select_rows(indices),
            y: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_datasets::grid2d;
    use sgl_graph::laplacian::laplacian_csr;

    #[test]
    fn generated_currents_are_normalized_and_balanced() {
        let g = grid2d(6, 6);
        let meas = Measurements::generate(&g, 8, 1).unwrap();
        let y = meas.currents().unwrap();
        for j in 0..8 {
            let col = y.column(j);
            assert!((vecops::norm2(&col) - 1.0).abs() < 1e-12);
            assert!(vecops::mean(&col).abs() < 1e-12);
        }
    }

    #[test]
    fn voltages_satisfy_laplacian_equation() {
        let g = grid2d(5, 5);
        let meas = Measurements::generate(&g, 4, 2).unwrap();
        let l = laplacian_csr(&g);
        for j in 0..4 {
            let x = meas.voltage_vector(j);
            let lx = l.matvec(&x);
            let y = meas.currents().unwrap().column(j);
            for i in 0..25 {
                assert!((lx[i] - y[i]).abs() < 1e-7, "col {j} row {i}");
            }
        }
    }

    #[test]
    fn jl_measurements_approximate_effective_resistance() {
        // Path graph: R_eff(0, n-1) = n-1 exactly.
        let n = 12;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1, 1.0)));
        let m = 4000; // large m for a tight test
        let meas = Measurements::generate_jl(&g, m, 3).unwrap();
        let d = meas.data_distance_sq(0, n - 1);
        assert!(
            (d - (n as f64 - 1.0)).abs() < 0.15 * (n as f64 - 1.0),
            "JL estimate {d} vs true {}",
            n - 1
        );
    }

    #[test]
    fn jl_sample_count_formula() {
        let m = Measurements::jl_sample_count(10_000, 0.5);
        assert_eq!(m, ((24.0 * 10_000f64.ln()) / 0.25).ceil() as usize);
    }

    #[test]
    fn noise_scales_with_zeta() {
        let g = grid2d(5, 5);
        let meas = Measurements::generate(&g, 3, 4).unwrap();
        let noisy = meas.with_noise(0.25, 9);
        assert_eq!(noisy.num_nodes(), meas.num_nodes());
        assert_eq!(noisy.num_measurements(), meas.num_measurements());
        assert_eq!(noisy.currents(), meas.currents(), "currents untouched");
        for j in 0..3 {
            let clean = meas.voltage_vector(j);
            let dirty = noisy.voltage_vector(j);
            let diff = vecops::sub(&dirty, &clean);
            let rel = vecops::norm2(&diff) / vecops::norm2(&clean);
            assert!((rel - 0.25).abs() < 1e-10, "rel {rel}");
        }
        // Zero noise is identity.
        let same = meas.with_noise(0.0, 9);
        assert_eq!(same.voltages(), meas.voltages());
    }

    #[test]
    fn subset_rows_drops_currents() {
        let g = grid2d(4, 4);
        let meas = Measurements::generate(&g, 3, 5).unwrap();
        let sub = meas.subset_rows(&[0, 5, 10]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_measurements(), 3);
        assert!(sub.currents().is_none());
        assert_eq!(sub.voltages().row(1), meas.voltages().row(5));
    }

    #[test]
    fn hstack_concatenates_batches() {
        let g = grid2d(4, 4);
        let a = Measurements::generate(&g, 3, 6).unwrap();
        let b = Measurements::generate(&g, 2, 7).unwrap();
        let ab = a.hstack(&b).unwrap();
        assert_eq!(ab.num_nodes(), 16);
        assert_eq!(ab.num_measurements(), 5);
        assert_eq!(ab.voltage_vector(0), a.voltage_vector(0));
        assert_eq!(ab.voltage_vector(3), b.voltage_vector(0));
        assert!(ab.currents().is_some());
        assert_eq!(
            ab.currents().unwrap().column(4),
            b.currents().unwrap().column(1)
        );

        // A voltage-only batch degrades the union to voltage-only.
        let volts = Measurements::from_voltages(b.voltages().clone()).unwrap();
        let av = a.hstack(&volts).unwrap();
        assert!(av.currents().is_none());
        assert_eq!(av.num_measurements(), 5);

        // Node-count mismatch is rejected.
        let other = Measurements::generate(&grid2d(3, 3), 2, 8).unwrap();
        assert!(a.hstack(&other).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let x = DenseMatrix::zeros(4, 2);
        let y = DenseMatrix::zeros(3, 2);
        assert!(Measurements::new(x, y).is_err());
    }

    #[test]
    fn non_finite_entries_rejected_at_every_boundary() {
        let poisoned =
            |bad: f64| DenseMatrix::from_fn(4, 2, |i, j| if i == 2 && j == 1 { bad } else { 1.0 });
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                Measurements::from_voltages(poisoned(bad)),
                Err(SglError::InvalidMeasurements(_))
            ));
            assert!(matches!(
                Measurements::new(DenseMatrix::zeros(4, 2), poisoned(bad)),
                Err(SglError::InvalidMeasurements(_))
            ));
        }
        // hstack re-validates the incoming batch: a batch constructed
        // clean cannot be poisoned, but a caller-mutated one can.
        let clean = Measurements::from_voltages(DenseMatrix::zeros(4, 2)).unwrap();
        let mut dirty = clean.clone();
        dirty.x = poisoned(f64::NAN);
        assert!(matches!(
            clean.hstack(&dirty),
            Err(SglError::InvalidMeasurements(_))
        ));
    }

    #[test]
    fn policy_driven_generation_matches_default() {
        use sgl_solver::PolicyMethod;
        let g = grid2d(5, 5);
        let a = Measurements::generate(&g, 4, 11).unwrap();
        let b = Measurements::generate_with(&g, 4, 11, &SolverPolicy::default()).unwrap();
        assert_eq!(a.voltages(), b.voltages());
        // The dense reference backend produces the same measurements to
        // solver precision.
        let dense = Measurements::generate_with(
            &g,
            4,
            11,
            &SolverPolicy::default().with_method(PolicyMethod::DenseCholesky),
        )
        .unwrap();
        assert_eq!(a.currents().unwrap(), dense.currents().unwrap());
        for j in 0..4 {
            let d = vecops::sub(&a.voltage_vector(j), &dense.voltage_vector(j));
            assert!(vecops::norm2(&d) < 1e-7, "column {j} diverges");
        }
    }

    #[test]
    fn deterministic_generation() {
        let g = grid2d(4, 4);
        let a = Measurements::generate(&g, 3, 77).unwrap();
        let b = Measurements::generate(&g, 3, 77).unwrap();
        assert_eq!(a.voltages(), b.voltages());
    }
}
