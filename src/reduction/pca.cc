#include "reduction/pca.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "stats/covariance.h"

namespace cohere {

namespace {

// Fills the per-column divisors for correlation (studentized) scaling —
// zero-variance columns are pinned to divisor 1 so they pass through
// centered but unscaled — and publishes how many columns were degenerate
// (`scaling.zero_variance_dims`), since a constant attribute silently
// contributes nothing to a correlation-scaled reduction.
void ApplyCorrelationScale(const Matrix& data, Vector* scale) {
  const Vector stds = ColumnStdDevs(data);
  size_t zero_variance = 0;
  for (size_t j = 0; j < stds.size(); ++j) {
    if (stds[j] > 0.0) {
      (*scale)[j] = stds[j];
    } else {
      (*scale)[j] = 1.0;
      ++zero_variance;
    }
  }
  if (obs::MetricsRegistry::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("scaling.zero_variance_dims")
        ->Set(static_cast<double>(zero_variance));
  }
}

}  // namespace

const char* PcaScalingName(PcaScaling scaling) {
  switch (scaling) {
    case PcaScaling::kCovariance:
      return "covariance";
    case PcaScaling::kCorrelation:
      return "correlation";
  }
  return "unknown";
}

Result<PcaModel> PcaModel::Fit(const Matrix& data, PcaScaling scaling) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("PCA requires a non-empty data matrix");
  }
  if (!AllFinite(data)) {
    return Status::InvalidArgument("data contains NaN or Inf");
  }

  PcaModel model;
  model.scaling_ = scaling;
  model.mean_ = ColumnMeans(data);
  model.scale_ = Vector(data.cols(), 1.0);

  Matrix moment;
  if (scaling == PcaScaling::kCorrelation) {
    ApplyCorrelationScale(data, &model.scale_);
    moment = CorrelationMatrix(data);
  } else {
    moment = CovarianceMatrix(data);
  }

  Result<EigenDecomposition> eig = SymmetricEigen(moment);
  if (!eig.ok()) return eig.status();
  model.eigenvalues_ = std::move(eig->eigenvalues);
  model.eigenvectors_ = std::move(eig->eigenvectors);

  // Covariance matrices are positive semi-definite; clamp the tiny negative
  // eigenvalues that finite precision produces so downstream variance
  // accounting stays non-negative.
  for (size_t i = 0; i < model.eigenvalues_.size(); ++i) {
    if (model.eigenvalues_[i] < 0.0 && model.eigenvalues_[i] > -1e-9) {
      model.eigenvalues_[i] = 0.0;
    }
  }
  return model;
}

Result<PcaModel> PcaModel::FitWithSvd(const Matrix& data,
                                      PcaScaling scaling) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("PCA requires a non-empty data matrix");
  }
  if (data.rows() < data.cols()) {
    return Status::InvalidArgument(
        "SVD-path PCA requires at least as many records as attributes");
  }
  if (!AllFinite(data)) {
    return Status::InvalidArgument("data contains NaN or Inf");
  }

  PcaModel model;
  model.scaling_ = scaling;
  model.mean_ = ColumnMeans(data);
  model.scale_ = Vector(data.cols(), 1.0);
  if (scaling == PcaScaling::kCorrelation) {
    ApplyCorrelationScale(data, &model.scale_);
  }

  const Matrix normalized = model.NormalizeRows(data);
  Result<SvdDecomposition> svd = JacobiSvd(normalized);
  if (!svd.ok()) return svd.status();

  // sigma_i^2 / n are the eigenvalues of the (population) second-moment
  // matrix of the normalized data.
  const double inv_n = 1.0 / static_cast<double>(data.rows());
  const size_t d = data.cols();
  model.eigenvalues_.Resize(d);
  for (size_t i = 0; i < d; ++i) {
    const double sigma = svd->singular_values[i];
    model.eigenvalues_[i] = sigma * sigma * inv_n;
  }
  model.eigenvectors_ = std::move(svd->v);
  return model;
}

Result<PcaModel> PcaModel::FitIdentity(const Matrix& data,
                                       PcaScaling scaling) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("PCA requires a non-empty data matrix");
  }
  if (!AllFinite(data)) {
    return Status::InvalidArgument("data contains NaN or Inf");
  }

  PcaModel model;
  model.scaling_ = scaling;
  model.mean_ = ColumnMeans(data);
  model.scale_ = Vector(data.cols(), 1.0);
  if (scaling == PcaScaling::kCorrelation) {
    ApplyCorrelationScale(data, &model.scale_);
  }

  // The normalized data's per-attribute variances stand in for eigenvalues:
  // raw column variances under covariance scaling; 1 under correlation
  // scaling (0 for a constant column, whose divisor is pinned at 1).
  const size_t d = data.cols();
  const Vector stds = ColumnStdDevs(data);
  Vector variances(d);
  for (size_t j = 0; j < d; ++j) {
    const double sigma = stds[j] / model.scale_[j];
    variances[j] = sigma * sigma;
  }
  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return variances[a] > variances[b];
  });

  model.eigenvalues_.Resize(d);
  model.eigenvectors_ = Matrix(d, d);
  for (size_t i = 0; i < d; ++i) {
    model.eigenvalues_[i] = variances[order[i]];
    model.eigenvectors_.At(order[i], i) = 1.0;
  }
  return model;
}

Result<PcaModel> PcaModel::FromComponents(PcaScaling scaling,
                                          Vector eigenvalues,
                                          Matrix eigenvectors, Vector mean,
                                          Vector scale) {
  const size_t d = mean.size();
  if (d == 0) return Status::InvalidArgument("empty model");
  if (eigenvalues.size() != d || scale.size() != d ||
      eigenvectors.rows() != d || eigenvectors.cols() != d) {
    return Status::InvalidArgument("component shapes disagree");
  }
  for (size_t i = 1; i < d; ++i) {
    if (eigenvalues[i] > eigenvalues[i - 1] + 1e-9) {
      return Status::InvalidArgument("eigenvalues are not descending");
    }
  }
  for (size_t j = 0; j < d; ++j) {
    if (scale[j] <= 0.0) {
      return Status::InvalidArgument("scales must be positive");
    }
  }
  PcaModel model;
  model.scaling_ = scaling;
  model.eigenvalues_ = std::move(eigenvalues);
  model.eigenvectors_ = std::move(eigenvectors);
  model.mean_ = std::move(mean);
  model.scale_ = std::move(scale);
  return model;
}

Vector PcaModel::Normalize(const Vector& point) const {
  COHERE_CHECK_EQ(point.size(), dims());
  Vector out(dims());
  for (size_t j = 0; j < dims(); ++j) {
    out[j] = (point[j] - mean_[j]) / scale_[j];
  }
  return out;
}

Matrix PcaModel::NormalizeRows(const Matrix& data) const {
  COHERE_CHECK_EQ(data.cols(), dims());
  Matrix out = data;
  for (size_t i = 0; i < out.rows(); ++i) {
    double* row = out.RowPtr(i);
    for (size_t j = 0; j < dims(); ++j) {
      row[j] = (row[j] - mean_[j]) / scale_[j];
    }
  }
  return out;
}

Vector PcaModel::Transform(const Vector& point) const {
  return MatTransposeVec(eigenvectors_, Normalize(point));
}

Matrix PcaModel::TransformRows(const Matrix& data) const {
  return Multiply(NormalizeRows(data), eigenvectors_);
}

Vector PcaModel::Project(const Vector& point,
                         const std::vector<size_t>& components) const {
  return ProjectNormalized(Normalize(point), components);
}

Vector PcaModel::ProjectNormalized(
    const Vector& normalized, const std::vector<size_t>& components) const {
  COHERE_CHECK_EQ(normalized.size(), dims());
  Vector out(components.size());
  for (size_t c = 0; c < components.size(); ++c) {
    COHERE_CHECK_LT(components[c], dims());
    double dot = 0.0;
    for (size_t j = 0; j < dims(); ++j) {
      dot += normalized[j] * eigenvectors_.At(j, components[c]);
    }
    out[c] = dot;
  }
  return out;
}

Matrix PcaModel::ProjectRows(const Matrix& data,
                             const std::vector<size_t>& components) const {
  return Multiply(NormalizeRows(data),
                  eigenvectors_.SelectCols(components));
}

Vector PcaModel::Reconstruct(const Vector& coords,
                             const std::vector<size_t>& components) const {
  COHERE_CHECK_EQ(coords.size(), components.size());
  Vector normalized(dims());
  for (size_t c = 0; c < components.size(); ++c) {
    COHERE_CHECK_LT(components[c], dims());
    for (size_t j = 0; j < dims(); ++j) {
      normalized[j] += coords[c] * eigenvectors_.At(j, components[c]);
    }
  }
  Vector out(dims());
  for (size_t j = 0; j < dims(); ++j) {
    out[j] = normalized[j] * scale_[j] + mean_[j];
  }
  return out;
}

double PcaModel::TotalVariance() const { return eigenvalues_.Sum(); }

double PcaModel::VarianceRetainedFraction(
    const std::vector<size_t>& components) const {
  const double total = TotalVariance();
  if (total <= 0.0) return 0.0;
  double kept = 0.0;
  for (size_t c : components) {
    COHERE_CHECK_LT(c, eigenvalues_.size());
    kept += eigenvalues_[c];
  }
  return kept / total;
}

}  // namespace cohere
