#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/fault.h"

namespace cohere {

// The tridiagonalization and QL iteration below follow the classic
// EISPACK tred2/tql2 algorithms (Wilkinson & Reinsch, Handbook for Automatic
// Computation; widely redistributed in public-domain translations such as
// JAMA). They are numerically robust for the dense symmetric systems PCA
// produces and accumulate the orthogonal transform as they go.

void HouseholderTridiagonalize(const Matrix& a, Matrix* z, Vector* d,
                               Vector* e) {
  COHERE_CHECK_EQ(a.rows(), a.cols());
  const size_t n = a.rows();
  // The reduction works in place on a copy of `a`; without `z` that copy is
  // scratch.
  Matrix scratch;
  Matrix& v = z != nullptr ? *z : scratch;
  v = a;
  d->Resize(n);
  e->Resize(n);
  Vector& dd = *d;
  Vector& ee = *e;

  for (size_t j = 0; j < n; ++j) dd[j] = v.At(n - 1, j);

  // Householder reduction to tridiagonal form, working upwards.
  for (size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(dd[k]);
    if (scale == 0.0) {
      ee[i] = dd[i - 1];
      for (size_t j = 0; j < i; ++j) {
        dd[j] = v.At(i - 1, j);
        v.At(i, j) = 0.0;
        v.At(j, i) = 0.0;
      }
    } else {
      for (size_t k = 0; k < i; ++k) {
        dd[k] /= scale;
        h += dd[k] * dd[k];
      }
      double f = dd[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      ee[i] = scale * g;
      h -= f * g;
      dd[i - 1] = f - g;
      for (size_t j = 0; j < i; ++j) ee[j] = 0.0;

      // Apply similarity transformation to the remaining submatrix.
      for (size_t j = 0; j < i; ++j) {
        f = dd[j];
        v.At(j, i) = f;
        g = ee[j] + v.At(j, j) * f;
        for (size_t k = j + 1; k < i; ++k) {
          g += v.At(k, j) * dd[k];
          ee[k] += v.At(k, j) * f;
        }
        ee[j] = g;
      }
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        ee[j] /= h;
        f += ee[j] * dd[j];
      }
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) ee[j] -= hh * dd[j];
      for (size_t j = 0; j < i; ++j) {
        f = dd[j];
        g = ee[j];
        for (size_t k = j; k < i; ++k) {
          v.At(k, j) -= f * ee[k] + g * dd[k];
        }
        dd[j] = v.At(i - 1, j);
        v.At(i, j) = 0.0;
      }
    }
    dd[i] = h;
  }

  if (z == nullptr) {
    // The accumulation below parks each diagonal entry v(i, i) in row n - 1
    // before touching it and reads the diagonal back from there, so reading
    // it straight off the diagonal gives the same values.
    for (size_t j = 0; j < n; ++j) dd[j] = v.At(j, j);
    ee[0] = 0.0;
    return;
  }

  // Accumulate the transformations.
  for (size_t i = 0; i + 1 < n; ++i) {
    v.At(n - 1, i) = v.At(i, i);
    v.At(i, i) = 1.0;
    const double h = dd[i + 1];
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) dd[k] = v.At(k, i + 1) / h;
      for (size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (size_t k = 0; k <= i; ++k) g += v.At(k, i + 1) * v.At(k, j);
        for (size_t k = 0; k <= i; ++k) v.At(k, j) -= g * dd[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) v.At(k, i + 1) = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    dd[j] = v.At(n - 1, j);
    v.At(n - 1, j) = 0.0;
  }
  v.At(n - 1, n - 1) = 1.0;
  ee[0] = 0.0;
}

Status TridiagonalQl(Vector* d, Vector* e, Matrix* z) {
  const size_t n = d->size();
  COHERE_CHECK_EQ(e->size(), n);
  if (z != nullptr) {
    COHERE_CHECK_EQ(z->rows(), n);
    COHERE_CHECK_EQ(z->cols(), n);
  }
  if (n == 0) return Status::Ok();
  Vector& dd = *d;
  Vector& ee = *e;

  for (size_t i = 1; i < n; ++i) ee[i - 1] = ee[i];
  ee[n - 1] = 0.0;

  constexpr int kMaxIterations = 64;
  const double eps = std::ldexp(1.0, -52);
  double f = 0.0;
  double tst1 = 0.0;

  for (size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(dd[l]) + std::fabs(ee[l]));
    size_t m = l;
    while (m < n && std::fabs(ee[m]) > eps * tst1) ++m;
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > kMaxIterations) {
          return Status::NumericalError(
              "tridiagonal QL failed to converge within iteration limit");
        }
        // Form the implicit shift.
        double g = dd[l];
        double p = (dd[l + 1] - g) / (2.0 * ee[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        dd[l] = ee[l] / (p + r);
        dd[l + 1] = ee[l] * (p + r);
        const double dl1 = dd[l + 1];
        double h = g - dd[l];
        for (size_t i = l + 2; i < n; ++i) dd[i] -= h;
        f += h;

        // QL transformation.
        p = dd[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = ee[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * ee[i];
          h = c * p;
          r = std::hypot(p, ee[i]);
          ee[i + 1] = s * r;
          s = ee[i] / r;
          c = p / r;
          p = c * dd[i] - s * g;
          dd[i + 1] = h + s * (c * g + s * dd[i]);
          // Rotate eigenvectors.
          if (z != nullptr) {
            Matrix& v = *z;
            for (size_t k = 0; k < n; ++k) {
              h = v.At(k, i + 1);
              v.At(k, i + 1) = s * v.At(k, i) + c * h;
              v.At(k, i) = c * v.At(k, i) - s * h;
            }
          }
        }
        p = -s * s2 * c3 * el1 * ee[l] / dl1;
        ee[l] = s * p;
        dd[l] = c * p;
      } while (std::fabs(ee[l]) > eps * tst1);
    }
    dd[l] += f;
    ee[l] = 0.0;
  }
  return Status::Ok();
}

namespace {

// The body SymmetricEigen and SymmetricEigenvalues share: validates `a`,
// diagonalizes it (accumulating eigenvectors into `*z` only when `z` is
// non-null) and lists the eigenvalue indices in descending order.
Status Diagonalize(const Matrix& a, Matrix* z, Vector* d,
                   std::vector<size_t>* order) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("eigendecomposition requires a square matrix");
  }
  if (!a.IsSymmetric(1e-8 * std::max(1.0, a.MaxAbs()))) {
    return Status::InvalidArgument("matrix is not symmetric");
  }
  if (COHERE_INJECT_FAULT(fault::kPointSymmetricEigen)) {
    return Status::NumericalError(
        "injected fault: " + std::string(fault::kPointSymmetricEigen));
  }
  const size_t n = a.rows();
  order->clear();
  if (n == 0) return Status::Ok();

  Vector e;
  HouseholderTridiagonalize(a, z, d, &e);
  Status ql = TridiagonalQl(d, &e, z);
  if (!ql.ok()) return ql;

  order->resize(n);
  std::iota(order->begin(), order->end(), size_t{0});
  std::sort(order->begin(), order->end(),
            [d](size_t x, size_t y) { return (*d)[x] > (*d)[y]; });
  return Status::Ok();
}

}  // namespace

Result<EigenDecomposition> SymmetricEigen(const Matrix& a) {
  Matrix z;
  Vector d;
  std::vector<size_t> order;
  Status status = Diagonalize(a, &z, &d, &order);
  if (!status.ok()) return status;

  const size_t n = order.size();
  EigenDecomposition out;
  out.eigenvalues.Resize(n);
  out.eigenvectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = d[order[j]];
    for (size_t i = 0; i < n; ++i) {
      out.eigenvectors.At(i, j) = z.At(i, order[j]);
    }
  }
  return out;
}

Result<Vector> SymmetricEigenvalues(const Matrix& a) {
  Vector d;
  std::vector<size_t> order;
  Status status = Diagonalize(a, nullptr, &d, &order);
  if (!status.ok()) return status;

  Vector out(order.size());
  for (size_t j = 0; j < order.size(); ++j) out[j] = d[order[j]];
  return out;
}

}  // namespace cohere
