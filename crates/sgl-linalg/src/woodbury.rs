//! Low-rank inverse corrections via the Woodbury identity.
//!
//! When a symmetric system `L` gains a low-rank edge update
//! `Δ = B W Bᵀ` (each column of `B` an incidence vector
//! `b_e = e_u − e_v`, `W = diag(δw_e)`), the updated inverse is
//!
//! ```text
//! (L + B W Bᵀ)⁻¹ = L⁻¹ − L⁻¹ B (W⁻¹ + Bᵀ L⁻¹ B)⁻¹ Bᵀ L⁻¹
//! ```
//!
//! so a prepared solver for `L` keeps working after the update: one base
//! solve plus an `O(n·r + r²)` dense correction with the small
//! *capacitance* matrix `C = W⁻¹ + Bᵀ L⁻¹ B` factored once per delta
//! batch. For graph Laplacians every `b_e` is mean-zero, so the whole
//! correction lives in the mean-zero subspace where `L⁺` acts as a true
//! inverse — the identity carries over verbatim to the pseudo-inverse of
//! a connected Laplacian.
//!
//! [`WoodburyUpdate`] is the prepared correction. The caller supplies the
//! base solutions `z_e = L⁺ b_e` (one batched solve through whatever
//! handle it already holds); [`WoodburyUpdate::correct`] then turns any
//! base solution `y = L⁺ b` into the updated solution
//! `(L + Δ)⁺ b = y − Z C⁻¹ Bᵀ y` in place. The rows of `Z` are shared
//! (`Arc`), so successive updates over a growing delta set reuse the
//! rows they have in common instead of copying an `r × n` matrix each.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::symeig::SymEig;
use std::sync::Arc;

/// Inverse of the small dense capacitance matrix, held spectrally:
/// `C = V diag(λ) Vᵀ ⇒ C⁻¹ t = V diag(1/λ) Vᵀ t`. An eigendecomposition
/// (not Cholesky) because `C` is indefinite for weight *decreases* —
/// the Woodbury identity only needs `C` invertible, not positive.
#[derive(Debug, Clone)]
struct CapacitanceInverse {
    values: Vec<f64>,
    vectors: DenseMatrix,
}

impl CapacitanceInverse {
    fn compute(c: &DenseMatrix) -> Result<Self, LinalgError> {
        let eig = SymEig::compute(c)?;
        let max_abs = eig.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for &v in &eig.values {
            if !v.is_finite() || v.abs() <= max_abs * 1e-12 {
                return Err(LinalgError::InvalidInput(format!(
                    "woodbury capacitance is numerically singular (eigenvalue {v:.3e} \
                     against spread {max_abs:.3e}); refactor instead"
                )));
            }
        }
        Ok(CapacitanceInverse {
            values: eig.values,
            vectors: eig.vectors,
        })
    }

    fn solve(&self, t: &[f64]) -> Vec<f64> {
        // s = V diag(1/λ) Vᵀ t.
        let mut scaled = self.vectors.matvec_t(t);
        for (x, l) in scaled.iter_mut().zip(&self.values) {
            *x /= l;
        }
        self.vectors.matvec(&scaled)
    }
}

/// A prepared rank-`r` Woodbury correction over edge incidence vectors
/// (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct WoodburyUpdate {
    num_nodes: usize,
    edges: Vec<(usize, usize)>,
    weights: Vec<f64>,
    /// Row `i` = `z_i = L⁺ b_i` (the caller's base solves), shared.
    z: Vec<Arc<[f64]>>,
    /// Spectral inverse of the capacitance `C = W⁻¹ + Bᵀ Z`.
    capacitance: CapacitanceInverse,
}

impl WoodburyUpdate {
    /// Prepare the correction for delta edges `(u_i, v_i)` with weight
    /// changes `weights[i]`, given the base solutions
    /// `z_rows[i] = L⁺ (e_{u_i} − e_{v_i})`. The rows are kept by
    /// reference, not copied.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] on shape mismatches, empty
    /// input, self loops, a (near-)zero weight change (`W⁻¹` would blow
    /// up — drop such deltas instead), or a numerically singular
    /// capacitance matrix — e.g. a weight *decrease* that drives the
    /// updated operator to the edge of positive semidefiniteness. All
    /// are signals to fall back to a full refactorization.
    pub fn new(
        num_nodes: usize,
        edges: Vec<(usize, usize)>,
        weights: Vec<f64>,
        z_rows: Vec<Arc<[f64]>>,
    ) -> Result<Self, LinalgError> {
        let r = edges.len();
        if r == 0 {
            return Err(LinalgError::InvalidInput(
                "woodbury update needs at least one delta edge".into(),
            ));
        }
        if weights.len() != r || z_rows.len() != r {
            return Err(LinalgError::InvalidInput(format!(
                "woodbury update: {} edges, {} weights, {} base solutions",
                r,
                weights.len(),
                z_rows.len()
            )));
        }
        for &(u, v) in &edges {
            if u >= num_nodes || v >= num_nodes || u == v {
                return Err(LinalgError::InvalidInput(format!(
                    "woodbury update: invalid delta edge ({u}, {v}) for {num_nodes} nodes"
                )));
            }
        }
        for &w in &weights {
            if !w.is_finite() || w.abs() < 1e-300 {
                return Err(LinalgError::InvalidInput(format!(
                    "woodbury update: degenerate weight change {w}"
                )));
            }
        }
        for zi in &z_rows {
            if zi.len() != num_nodes {
                return Err(LinalgError::DimensionMismatch {
                    context: "woodbury base solution",
                    expected: num_nodes,
                    actual: zi.len(),
                });
            }
        }
        // C_{ij} = δ_{ij}/w_i + b_iᵀ z_j. Exactly symmetric in theory;
        // iterative base solves leave a tiny skew, so symmetrize before
        // factoring.
        let mut cap = DenseMatrix::zeros(r, r);
        for i in 0..r {
            let (u, v) = edges[i];
            for (j, zj) in z_rows.iter().enumerate() {
                let mut c = zj[u] - zj[v];
                if i == j {
                    c += 1.0 / weights[i];
                }
                cap.set(i, j, c);
            }
        }
        for i in 0..r {
            for j in (i + 1)..r {
                let s = 0.5 * (cap.get(i, j) + cap.get(j, i));
                cap.set(i, j, s);
                cap.set(j, i, s);
            }
        }
        let capacitance = CapacitanceInverse::compute(&cap)?;
        Ok(WoodburyUpdate {
            num_nodes,
            edges,
            weights,
            z: z_rows,
            capacitance,
        })
    }

    /// Number of delta edges `r` (the rank of the correction).
    pub fn rank(&self) -> usize {
        self.edges.len()
    }

    /// Dimension of the corrected system.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The delta edges, in preparation order.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The accumulated weight change per delta edge.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Turn a base solution `y = L⁺ b` into the updated solution
    /// `(L + Δ)⁺ b = y − Z C⁻¹ Bᵀ y`, in place. `O(n·r)` plus two
    /// triangular sweeps of order `r`. Mean-zero input stays mean-zero
    /// (every `z_i` is).
    ///
    /// # Panics
    /// Panics if `y.len()` differs from the prepared dimension.
    pub fn correct(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.num_nodes, "woodbury correct: length");
        let mut t = Vec::with_capacity(self.rank());
        for &(u, v) in &self.edges {
            t.push(y[u] - y[v]);
        }
        let s = self.capacitance.solve(&t);
        for (&si, zi) in s.iter().zip(&self.z) {
            if si == 0.0 {
                continue;
            }
            for (yk, zk) in y.iter_mut().zip(zi.iter()) {
                *yk -= si * zk;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::CholeskyFactor;
    use crate::rng::Rng;
    use crate::sparse::CsrMatrix;
    use crate::vecops;

    /// Path Laplacian on `n` nodes with the given edge weights.
    fn path_laplacian(weights: &[f64]) -> CsrMatrix {
        let n = weights.len() + 1;
        let mut t = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            t.push((i, i, w));
            t.push((i + 1, i + 1, w));
            t.push((i, i + 1, -w));
            t.push((i + 1, i, -w));
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// Exact mean-zero pseudo-solve via dense Cholesky of `L + 11ᵀ/n`.
    fn pseudo_solver(l: &CsrMatrix) -> impl Fn(&[f64]) -> Vec<f64> {
        let n = l.nrows();
        let mut dense = l.to_dense();
        let shift = 1.0 / n as f64;
        for i in 0..n {
            for j in 0..n {
                let v = dense.get(i, j) + shift;
                dense.set(i, j, v);
            }
        }
        let chol = CholeskyFactor::compute(&dense).unwrap();
        move |b: &[f64]| {
            let mut rhs = b.to_vec();
            vecops::project_out_mean(&mut rhs);
            let mut x = chol.solve(&rhs);
            vecops::project_out_mean(&mut x);
            x
        }
    }

    #[test]
    fn corrected_solve_matches_fresh_factorization() {
        // Base: path on 8 nodes. Delta: add chords (0,4) and (2,7), and
        // bump edge (1,2).
        let n = 8;
        let base = path_laplacian(&[1.0, 2.0, 1.5, 0.5, 1.0, 3.0, 2.0]);
        let solve0 = pseudo_solver(&base);
        let edges = vec![(0usize, 4usize), (2, 7), (1, 2)];
        let weights = vec![0.8, 1.2, 0.5];
        let z_rows: Vec<Arc<[f64]>> = edges
            .iter()
            .map(|&(u, v)| {
                let mut b = vec![0.0; n];
                b[u] = 1.0;
                b[v] = -1.0;
                solve0(&b).into()
            })
            .collect();
        let wb = WoodburyUpdate::new(n, edges.clone(), weights.clone(), z_rows).unwrap();
        assert_eq!(wb.rank(), 3);

        let mut updated = base.clone();
        assert!(updated.apply_laplacian_deltas(&[(1, 2, 0.5)]));
        let mut trips = Vec::new();
        for i in 0..n {
            let (cols, vals) = updated.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                trips.push((i, c, v));
            }
        }
        for (k, &(u, v)) in edges.iter().enumerate().take(2) {
            let w = weights[k];
            trips.push((u, u, w));
            trips.push((v, v, w));
            trips.push((u, v, -w));
            trips.push((v, u, -w));
        }
        let fresh = pseudo_solver(&CsrMatrix::from_triplets(n, n, &trips));

        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..5 {
            let mut b = rng.normal_vec(n);
            vecops::project_out_mean(&mut b);
            let mut x = solve0(&b);
            wb.correct(&mut x);
            let expect = fresh(&b);
            let d = vecops::sub(&x, &expect);
            assert!(
                vecops::norm2(&d) < 1e-10,
                "corrected vs fresh: {}",
                vecops::norm2(&d)
            );
            assert!(vecops::mean(&x).abs() < 1e-12);
        }
    }

    #[test]
    fn weight_decrease_is_exact_while_spd() {
        // A modest decrease keeps L + Δ PSD: Woodbury stays exact.
        let n = 6;
        let base = path_laplacian(&[2.0, 2.0, 2.0, 2.0, 2.0]);
        let solve0 = pseudo_solver(&base);
        let mut b = vec![0.0; n];
        b[1] = 1.0;
        b[2] = -1.0;
        let z = solve0(&b);
        let wb = WoodburyUpdate::new(n, vec![(1, 2)], vec![-1.0], vec![z.into()]).unwrap();
        let mut updated = base.clone();
        assert!(updated.apply_laplacian_deltas(&[(1, 2, -1.0)]));
        let fresh = pseudo_solver(&updated);
        let mut rng = Rng::seed_from_u64(3);
        let mut rhs = rng.normal_vec(n);
        vecops::project_out_mean(&mut rhs);
        let mut x = solve0(&rhs);
        wb.correct(&mut x);
        let d = vecops::sub(&x, &fresh(&rhs));
        assert!(vecops::norm2(&d) < 1e-10);
    }

    #[test]
    fn degenerate_input_is_rejected() {
        let n = 4;
        let z = || vec![Arc::from(vec![0.0; n])];
        assert!(WoodburyUpdate::new(n, vec![], vec![], vec![]).is_err());
        assert!(WoodburyUpdate::new(n, vec![(0, 0)], vec![1.0], z()).is_err());
        assert!(WoodburyUpdate::new(n, vec![(0, 9)], vec![1.0], z()).is_err());
        assert!(WoodburyUpdate::new(n, vec![(0, 1)], vec![0.0], z()).is_err());
        assert!(
            WoodburyUpdate::new(n, vec![(0, 1)], vec![1.0], vec![Arc::from(vec![0.0; 2])]).is_err()
        );
        assert!(WoodburyUpdate::new(n, vec![(0, 1), (1, 2)], vec![1.0], z()).is_err());
    }
}
