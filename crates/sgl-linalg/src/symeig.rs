//! Dense symmetric eigendecomposition.
//!
//! Householder tridiagonalization followed by the implicit-shift QL
//! iteration (the classical `tred2`/`tql2` pair). This is the exact
//! kernel behind every Rayleigh–Ritz step in the sparse eigensolvers and
//! the reference decomposition used by tests and the dense baseline.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;

/// Full eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are returned in ascending order; `vectors.column(i)` is the
/// unit eigenvector for `values[i]`.
///
/// # Example
/// ```
/// use sgl_linalg::{DenseMatrix, SymEig};
/// let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = SymEig::compute(&a).unwrap();
/// assert!((eig.values[0] - 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Ascending eigenvalues.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, matching `values`.
    pub vectors: DenseMatrix,
}

impl SymEig {
    /// Compute the decomposition.
    ///
    /// Only the lower triangle is read; the input is assumed symmetric.
    ///
    /// # Errors
    /// Returns a dimension error for non-square input and
    /// [`LinalgError::NotConverged`] if the QL iteration stalls (practically
    /// unreachable for finite input).
    pub fn compute(a: &DenseMatrix) -> Result<Self, LinalgError> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "symeig (square required)",
                expected: n,
                actual: a.ncols(),
            });
        }
        if n == 0 {
            return Ok(SymEig {
                values: Vec::new(),
                vectors: DenseMatrix::zeros(0, 0),
            });
        }
        decompose::<true>(a)
    }

    /// Smallest eigenvalue.
    pub fn min(&self) -> f64 {
        *self.values.first().expect("empty decomposition")
    }

    /// Largest eigenvalue.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("empty decomposition")
    }
}

/// Flat index of element `(i, j)` of an `n × n` matrix: column-major
/// when `COL_MAJOR`, row-major otherwise. `tred2`/`tql2` walk columns in
/// every inner loop, so the column-major buffer keeps them on contiguous
/// memory (a row-major column walk at n = 512 strides 4 KiB and aliases
/// cache sets). The arithmetic is the same either way; the row-major
/// instantiation exists so tests can prove the results bit-identical.
#[inline(always)]
fn at<const COL_MAJOR: bool>(n: usize, i: usize, j: usize) -> usize {
    if COL_MAJOR {
        j * n + i
    } else {
        i * n + j
    }
}

/// `tred2` + `tql2` on the symmetrized input in the given layout, with
/// eigenpairs sorted ascending.
fn decompose<const COL_MAJOR: bool>(a: &DenseMatrix) -> Result<SymEig, LinalgError> {
    let n = a.nrows();
    // Symmetrize defensively (callers may have tiny round-off skew). The
    // result is exactly symmetric, hence its own transpose: the same
    // buffer is the matrix in either layout.
    let mut z: Vec<f64> = (0..n * n)
        .map(|k| {
            let (i, j) = (k / n, k % n);
            0.5 * (a.get(i, j) + a.get(j, i))
        })
        .collect();
    let mut d = vec![0.0; n]; // diagonal
    let mut e = vec![0.0; n]; // off-diagonal
    tred2::<COL_MAJOR>(&mut z, &mut d, &mut e);
    tql2::<COL_MAJOR>(&mut z, &mut d, &mut e)?;
    Ok(sorted::<COL_MAJOR>(&z, &d))
}

/// Sort eigenvalues ascending, gathering the matching columns of `z`.
fn sorted<const COL_MAJOR: bool>(z: &[f64], d: &[f64]) -> SymEig {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let vectors = DenseMatrix::from_fn(n, n, |i, newj| z[at::<COL_MAJOR>(n, i, order[newj])]);
    SymEig { values, vectors }
}

/// Householder reduction of a real symmetric matrix to tridiagonal form
/// with accumulated transformations (port of JAMA's `tred2`). `z` is the
/// `n × n` matrix in the layout chosen by [`at`]. On exit it holds the
/// orthogonal transformation, `d` the diagonal and `e[1..]` the
/// sub-diagonal.
fn tred2<const COL_MAJOR: bool>(z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = z[at::<COL_MAJOR>(n, n - 1, j)];
    }
    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for item in d.iter().take(i) {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = z[at::<COL_MAJOR>(n, i - 1, j)];
                z[at::<COL_MAJOR>(n, i, j)] = 0.0;
                z[at::<COL_MAJOR>(n, j, i)] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for item in d.iter_mut().take(i) {
                *item /= scale;
                h += *item * *item;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for item in e.iter_mut().take(i) {
                *item = 0.0;
            }
            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                f = d[j];
                z[at::<COL_MAJOR>(n, j, i)] = f;
                g = e[j] + z[at::<COL_MAJOR>(n, j, j)] * f;
                for k in (j + 1)..i {
                    g += z[at::<COL_MAJOR>(n, k, j)] * d[k];
                    e[k] += z[at::<COL_MAJOR>(n, k, j)] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                for k in j..i {
                    let v = z[at::<COL_MAJOR>(n, k, j)] - (f * e[k] + g * d[k]);
                    z[at::<COL_MAJOR>(n, k, j)] = v;
                }
                d[j] = z[at::<COL_MAJOR>(n, i - 1, j)];
                z[at::<COL_MAJOR>(n, i, j)] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate transformations.
    for i in 0..n.saturating_sub(1) {
        z[at::<COL_MAJOR>(n, n - 1, i)] = z[at::<COL_MAJOR>(n, i, i)];
        z[at::<COL_MAJOR>(n, i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = z[at::<COL_MAJOR>(n, k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += z[at::<COL_MAJOR>(n, k, i + 1)] * z[at::<COL_MAJOR>(n, k, j)];
                }
                for k in 0..=i {
                    let v = z[at::<COL_MAJOR>(n, k, j)] - g * d[k];
                    z[at::<COL_MAJOR>(n, k, j)] = v;
                }
            }
        }
        for k in 0..=i {
            z[at::<COL_MAJOR>(n, k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = z[at::<COL_MAJOR>(n, n - 1, j)];
        z[at::<COL_MAJOR>(n, n - 1, j)] = 0.0;
    }
    z[at::<COL_MAJOR>(n, n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL iteration for a symmetric tridiagonal matrix with
/// accumulated eigenvectors (port of JAMA's `tql2`).
fn tql2<const COL_MAJOR: bool>(
    z: &mut [f64],
    d: &mut [f64],
    e: &mut [f64],
) -> Result<(), LinalgError> {
    let n = d.len();
    if n <= 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0f64;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        // Find a small subdiagonal element.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        // If m == l, d[l] is an eigenvalue; otherwise, iterate.
        if m > l {
            let mut iter = 0usize;
            loop {
                iter += 1;
                if iter > 80 {
                    return Err(LinalgError::NotConverged {
                        method: "tql2",
                        iterations: iter,
                        residual: e[l].abs(),
                    });
                }
                // Compute implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;
                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0f64;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0f64;
                let mut s2 = 0.0f64;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        h = z[at::<COL_MAJOR>(n, k, i + 1)];
                        z[at::<COL_MAJOR>(n, k, i + 1)] = s * z[at::<COL_MAJOR>(n, k, i)] + c * h;
                        z[at::<COL_MAJOR>(n, k, i)] = c * z[at::<COL_MAJOR>(n, k, i)] - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                // Check for convergence.
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Eigenvalues (ascending) and optional eigenvectors of a symmetric
/// tridiagonal matrix given by `diag` and `offdiag` (`offdiag.len() ==
/// diag.len() - 1`). Used by the Lanczos eigensolver.
///
/// # Panics
/// Panics if `offdiag.len() + 1 != diag.len()`.
pub fn tridiag_eig(diag: &[f64], offdiag: &[f64]) -> Result<SymEig, LinalgError> {
    let n = diag.len();
    assert_eq!(
        offdiag.len() + 1,
        n.max(1),
        "tridiag_eig: offdiag length mismatch"
    );
    let mut d = diag.to_vec();
    let mut e = vec![0.0; n];
    if n > 1 {
        e[1..].copy_from_slice(offdiag);
    }
    let mut z = vec![0.0; n * n];
    for i in 0..n {
        z[i * n + i] = 1.0;
    }
    tql2::<true>(&mut z, &mut d, &mut e)?;
    Ok(sorted::<true>(&z, &d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::vecops;

    fn random_symmetric(n: usize, seed: u64) -> DenseMatrix {
        let mut rng = Rng::seed_from_u64(seed);
        let raw = DenseMatrix::from_fn(n, n, |_, _| rng.standard_normal());
        DenseMatrix::from_fn(n, n, |i, j| 0.5 * (raw.get(i, j) + raw.get(j, i)))
    }

    fn check_decomposition(a: &DenseMatrix, eig: &SymEig, tol: f64) {
        let n = a.nrows();
        // A v = λ v for every pair.
        for k in 0..n {
            let v = eig.vectors.column(k);
            let av = a.matvec(&v);
            for i in 0..n {
                assert!(
                    (av[i] - eig.values[k] * v[i]).abs() < tol,
                    "pair {k}: residual {}",
                    (av[i] - eig.values[k] * v[i]).abs()
                );
            }
        }
        // Orthonormality.
        let g = eig.vectors.gram();
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g.get(i, j) - want).abs() < tol);
            }
        }
    }

    #[test]
    fn known_2x2() {
        let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let eig = SymEig::compute(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-12);
    }

    #[test]
    fn diagonal_matrix() {
        let a = DenseMatrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let eig = SymEig::compute(&a).unwrap();
        assert_eq!(eig.values.len(), 3);
        assert!((eig.values[0] + 1.0).abs() < 1e-14);
        assert!((eig.values[1] - 2.0).abs() < 1e-14);
        assert!((eig.values[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn random_matrices_decompose() {
        for n in [1usize, 2, 3, 5, 10, 25] {
            let a = random_symmetric(n, n as u64);
            let eig = SymEig::compute(&a).unwrap();
            check_decomposition(&a, &eig, 1e-9 * (n as f64));
            // Trace check.
            let tr: f64 = (0..n).map(|i| a.get(i, i)).sum();
            let sum: f64 = eig.values.iter().sum();
            assert!((tr - sum).abs() < 1e-9 * (n as f64 + 1.0));
        }
    }

    #[test]
    fn path_laplacian_eigenvalues_are_known() {
        // Path graph Laplacian on 4 nodes: eigenvalues 2 - 2 cos(k·π/4)·... use
        // the closed form λ_k = 2 - 2 cos(π k / n), k = 0..n-1, n = 4.
        let a = DenseMatrix::from_rows(&[
            vec![1.0, -1.0, 0.0, 0.0],
            vec![-1.0, 2.0, -1.0, 0.0],
            vec![0.0, -1.0, 2.0, -1.0],
            vec![0.0, 0.0, -1.0, 1.0],
        ]);
        let eig = SymEig::compute(&a).unwrap();
        for (k, &lam) in eig.values.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / 4.0).cos();
            assert!(
                (lam - expect).abs() < 1e-12,
                "k={k} got {lam} want {expect}"
            );
        }
        // Null vector is constant.
        let v0 = eig.vectors.column(0);
        let m = vecops::mean(&v0);
        for x in &v0 {
            assert!((x - m).abs() < 1e-10);
        }
    }

    #[test]
    fn tridiag_eig_matches_dense() {
        let diag = vec![2.0, 2.0, 2.0, 2.0];
        let off = vec![-1.0, -1.0, -1.0];
        let t = tridiag_eig(&diag, &off).unwrap();
        let a = DenseMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let dense = SymEig::compute(&a).unwrap();
        for k in 0..4 {
            assert!((t.values[k] - dense.values[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn column_major_layout_is_bit_identical_to_row_major() {
        for (n, seed) in [(1usize, 1u64), (2, 2), (7, 3), (33, 4), (64, 5), (97, 6)] {
            let a = random_symmetric(n, seed);
            let col = decompose::<true>(&a).unwrap();
            let row = decompose::<false>(&a).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&col.values), bits(&row.values), "values, n = {n}");
            assert_eq!(
                bits(col.vectors.as_slice()),
                bits(row.vectors.as_slice()),
                "vectors, n = {n}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let e = SymEig::compute(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
        let a = DenseMatrix::from_rows(&[vec![5.0]]);
        let e = SymEig::compute(&a).unwrap();
        assert_eq!(e.values, vec![5.0]);
        assert!((e.vectors.get(0, 0).abs() - 1.0).abs() < 1e-15);
    }
}
