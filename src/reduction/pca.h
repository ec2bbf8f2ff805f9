#ifndef COHERE_REDUCTION_PCA_H_
#define COHERE_REDUCTION_PCA_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace cohere {

/// Which second-moment matrix PCA diagonalizes.
///
/// kCorrelation is equivalent to studentizing every attribute to unit
/// variance first (the paper's Section 2.2 scaling recommendation);
/// kCovariance works on the raw attribute scales.
enum class PcaScaling {
  kCovariance,
  kCorrelation,
};

const char* PcaScalingName(PcaScaling scaling);

/// Principal component analysis of a data matrix.
///
/// Fitting diagonalizes the covariance (or correlation) matrix
/// C = P Lambda P^T and stores the full axis system: eigenvalues in
/// descending order, the orthonormal eigenvectors as columns of
/// `eigenvectors()`, and the column statistics needed to normalize new
/// points consistently.
class PcaModel {
 public:
  PcaModel() = default;

  /// Fits on the rows of `data` (at least one record, at least one column)
  /// by diagonalizing the covariance/correlation matrix.
  static Result<PcaModel> Fit(const Matrix& data, PcaScaling scaling);

  /// Fits via the thin SVD of the normalized data matrix instead of forming
  /// the second-moment matrix. Numerically preferable when the data is
  /// ill-conditioned (forming C squares the condition number); requires at
  /// least as many records as attributes. Produces the same model as Fit up
  /// to floating-point error and eigenvector sign.
  static Result<PcaModel> FitWithSvd(const Matrix& data, PcaScaling scaling);

  /// Last-resort degraded fit: no diagonalization at all. The "eigenvectors"
  /// are the attribute axes themselves (a permutation matrix ordering the
  /// studentized per-attribute variances descending) and the "eigenvalues"
  /// are those variances. Transform/Project then just center, scale and
  /// reorder coordinates — a valid, if uninformed, axis system that cannot
  /// fail on finite non-empty data. Used by ReductionPipeline::Fit as the
  /// bottom of its fallback chain.
  static Result<PcaModel> FitIdentity(const Matrix& data, PcaScaling scaling);

  /// Reassembles a model from stored components (used by serialization).
  /// Validates shape agreement, descending eigenvalue order and positive
  /// scales; does NOT re-verify eigenvector orthonormality.
  static Result<PcaModel> FromComponents(PcaScaling scaling,
                                         Vector eigenvalues,
                                         Matrix eigenvectors, Vector mean,
                                         Vector scale);

  /// Number of original attributes d.
  size_t dims() const { return mean_.size(); }
  PcaScaling scaling() const { return scaling_; }

  /// Eigenvalues, descending. The sum equals the trace of the analyzed
  /// matrix (total variance).
  const Vector& eigenvalues() const { return eigenvalues_; }
  /// d x d orthonormal matrix; column i is the eigenvector of eigenvalue i.
  const Matrix& eigenvectors() const { return eigenvectors_; }
  /// Column means of the fitted data.
  const Vector& mean() const { return mean_; }
  /// Per-column divisors applied before rotation (all ones for covariance
  /// scaling; the column standard deviations for correlation scaling, with
  /// zero-variance columns mapped to divisor 1).
  const Vector& scale() const { return scale_; }

  /// Centers/scales a point into the normalized attribute space (the space
  /// the eigenvectors live in).
  Vector Normalize(const Vector& point) const;
  /// Normalizes every row.
  Matrix NormalizeRows(const Matrix& data) const;

  /// Full rotation: coordinates of `point` along all d eigenvectors.
  Vector Transform(const Vector& point) const;
  /// Transforms every row; column i of the result is the coordinate along
  /// eigenvector i.
  Matrix TransformRows(const Matrix& data) const;

  /// Coordinates along the chosen eigenvectors only (the reduced
  /// representation).
  Vector Project(const Vector& point,
                 const std::vector<size_t>& components) const;
  Matrix ProjectRows(const Matrix& data,
                     const std::vector<size_t>& components) const;
  /// Project() of a point Normalize() has already mapped: lets a caller
  /// that also needs the normalized point compute it once.
  Vector ProjectNormalized(const Vector& normalized,
                           const std::vector<size_t>& components) const;

  /// Maps reduced coordinates back to the original attribute space (undoing
  /// scaling and centering); the lost components are filled with the mean.
  Vector Reconstruct(const Vector& coords,
                     const std::vector<size_t>& components) const;

  /// Sum of all eigenvalues.
  double TotalVariance() const;
  /// Fraction of TotalVariance captured by the chosen components (in [0,1]).
  double VarianceRetainedFraction(const std::vector<size_t>& components) const;

 private:
  PcaScaling scaling_ = PcaScaling::kCovariance;
  Vector eigenvalues_;
  Matrix eigenvectors_;
  Vector mean_;
  Vector scale_;
};

}  // namespace cohere

#endif  // COHERE_REDUCTION_PCA_H_
