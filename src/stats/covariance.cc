#include "stats/covariance.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"

namespace cohere {

Vector ColumnMeans(const Matrix& data) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  Vector means(d);
  if (n == 0) return means;
  for (size_t i = 0; i < n; ++i) {
    const double* row = data.RowPtr(i);
    for (size_t j = 0; j < d; ++j) means[j] += row[j];
  }
  means /= static_cast<double>(n);
  return means;
}

Vector ColumnStdDevs(const Matrix& data) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  Vector out(d);
  if (n == 0) return out;
  const Vector means = ColumnMeans(data);
  for (size_t i = 0; i < n; ++i) {
    const double* row = data.RowPtr(i);
    for (size_t j = 0; j < d; ++j) {
      const double dev = row[j] - means[j];
      out[j] += dev * dev;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    out[j] = std::sqrt(out[j] / static_cast<double>(n));
  }
  return out;
}

namespace {

// (1/n) X^T X of the n rows row_at(0), ..., row_at(n - 1), each centred on
// `means` as it is read rather than into an n x d copy, then
// re-symmetrized to scrub accumulation asymmetry. Lanes own disjoint
// stripes of output rows and walk the rows in order (every lane centres
// every row), so each element accumulates its rank-1 terms in the same
// order at any thread count; zero coordinates add nothing and are skipped.
template <typename RowAt>
Matrix CenteredGram(size_t n, const Vector& means, const RowAt& row_at) {
  const size_t d = means.size();
  const double* mu = means.data();
  Matrix cov(d, d);
  ParallelFor(0, d, /*grain=*/16, [&](size_t i_begin, size_t i_end) {
    std::vector<double> centered(d);
    for (size_t p = 0; p < n; ++p) {
      const double* row = row_at(p);
      for (size_t j = 0; j < d; ++j) centered[j] = row[j] - mu[j];
      for (size_t i = i_begin; i < i_end; ++i) {
        const double a_i = centered[i];
        if (a_i == 0.0) continue;
        double* cov_row = cov.RowPtr(i);
        for (size_t j = 0; j < d; ++j) cov_row[j] += a_i * centered[j];
      }
    }
  });
  cov *= 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i + 1; j < d; ++j) {
      const double avg = 0.5 * (cov.At(i, j) + cov.At(j, i));
      cov.At(i, j) = avg;
      cov.At(j, i) = avg;
    }
  }
  return cov;
}

}  // namespace

Matrix CovarianceMatrix(const Matrix& data) {
  COHERE_CHECK_GT(data.rows(), 0u);
  // The mean pass stays serial: it is O(nd) against the product's O(nd^2),
  // and keeping it sequential keeps the accumulation order (and thus the
  // result) independent of threading.
  return CenteredGram(data.rows(), ColumnMeans(data),
                      [&data](size_t p) { return data.RowPtr(p); });
}

Matrix RowSubsetCovariance(const Matrix& data,
                           const std::vector<size_t>& rows) {
  COHERE_CHECK_GT(rows.size(), 0u);
  Vector means(data.cols());
  for (size_t r : rows) {
    COHERE_CHECK_LT(r, data.rows());
    const double* row = data.RowPtr(r);
    for (size_t j = 0; j < data.cols(); ++j) means[j] += row[j];
  }
  means /= static_cast<double>(rows.size());
  return CenteredGram(rows.size(), means,
                      [&](size_t p) { return data.RowPtr(rows[p]); });
}

Matrix CorrelationMatrix(const Matrix& data) {
  Matrix cov = CovarianceMatrix(data);
  const size_t d = cov.rows();
  Vector inv_std(d);
  size_t zero_variance = 0;
  for (size_t j = 0; j < d; ++j) {
    const double var = cov.At(j, j);
    if (var > 0.0) {
      inv_std[j] = 1.0 / std::sqrt(var);
    } else {
      // A constant attribute has no correlation with anything; mapping its
      // inverse deviation to 0 zeroes its off-diagonal row/column (the
      // diagonal is pinned to 1 below), which keeps the matrix finite and
      // positive semi-definite but silently drops the attribute from the
      // analysis — worth one warning per process.
      inv_std[j] = 0.0;
      ++zero_variance;
    }
  }
  if (zero_variance > 0) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      COHERE_LOG(Warning)
          << "CorrelationMatrix: " << zero_variance << " of " << d
          << " attributes have zero variance; they are studentized to zero "
             "and carry no correlation signal (warning logged once)";
    }
  }
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (i == j) {
        cov.At(i, j) = 1.0;
      } else {
        cov.At(i, j) *= inv_std[i] * inv_std[j];
      }
    }
  }
  return cov;
}

double PearsonCorrelation(const Vector& a, const Vector& b) {
  COHERE_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  if (n == 0) return 0.0;
  const double mean_a = a.Sum() / static_cast<double>(n);
  const double mean_b = b.Sum() / static_cast<double>(n);
  double sab = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa == 0.0 || sbb == 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

Vector AverageRanks(const Vector& values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&values](size_t x, size_t y) {
    return values[x] < values[y];
  });
  Vector ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Positions i..j (0-based) share the average 1-based rank.
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) /
                                2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const Vector& a, const Vector& b) {
  COHERE_CHECK_EQ(a.size(), b.size());
  if (a.size() < 2) return 0.0;
  return PearsonCorrelation(AverageRanks(a), AverageRanks(b));
}

}  // namespace cohere
