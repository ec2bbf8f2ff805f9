#ifndef COHERE_LINALG_SYMMETRIC_EIGEN_H_
#define COHERE_LINALG_SYMMETRIC_EIGEN_H_

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace cohere {

/// Eigendecomposition of a real symmetric matrix A = V diag(w) V^T.
///
/// `eigenvalues[i]` corresponds to column `i` of `eigenvectors`; pairs are
/// sorted by descending eigenvalue, which is the order PCA consumes them in.
/// The eigenvector matrix is orthonormal.
struct EigenDecomposition {
  Vector eigenvalues;
  Matrix eigenvectors;
};

/// Computes the full eigendecomposition of symmetric `a` via Householder
/// tridiagonalization followed by the implicit-shift QL iteration.
///
/// Cost is O(d^3) with a small constant; this is the production solver used
/// by PcaModel. Returns NumericalError if the QL iteration fails to converge
/// (pathological input) and InvalidArgument if `a` is not square/symmetric.
Result<EigenDecomposition> SymmetricEigen(const Matrix& a);

/// The eigenvalues of symmetric `a` alone, sorted descending: the same
/// solver as SymmetricEigen with the eigenvector work skipped, so the result
/// is bitwise equal to `SymmetricEigen(a)->eigenvalues`. Same checks, same
/// errors, same fault point.
Result<Vector> SymmetricEigenvalues(const Matrix& a);

/// Reduces symmetric `a` to tridiagonal form. On return `*d` holds the
/// diagonal and `*e` the subdiagonal in e[1..n-1] (e[0] = 0). When `z` is
/// non-null it receives the accumulated orthogonal transform; a null `z`
/// skips the accumulation and yields the same `*d` and `*e` bit for bit.
///
/// Exposed for testing; most callers want SymmetricEigen.
void HouseholderTridiagonalize(const Matrix& a, Matrix* z, Vector* d,
                               Vector* e);

/// Diagonalizes a symmetric tridiagonal matrix (diagonal `*d`, subdiagonal
/// `*e` as produced by HouseholderTridiagonalize) with implicit-shift QL,
/// rotating the columns of `*z` along. On success `*d` holds the unsorted
/// eigenvalues and column j of `*z` the eigenvector for d[j]. A null `z`
/// skips the rotations; `*d` comes out the same.
Status TridiagonalQl(Vector* d, Vector* e, Matrix* z);

}  // namespace cohere

#endif  // COHERE_LINALG_SYMMETRIC_EIGEN_H_
