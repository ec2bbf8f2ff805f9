#ifndef COHERE_STATS_COVARIANCE_H_
#define COHERE_STATS_COVARIANCE_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace cohere {

/// Column means of a data matrix (records in rows).
Vector ColumnMeans(const Matrix& data);

/// Column-wise population standard deviations.
Vector ColumnStdDevs(const Matrix& data);

/// d x d covariance matrix of an n x d data matrix (population normalization,
/// divide by N, matching the paper's definition where the trace equals the
/// mean squared deviation from the centroid).
Matrix CovarianceMatrix(const Matrix& data);

/// CovarianceMatrix(data.SelectRows(rows)), bit for bit, without copying
/// the rows. `rows` must be non-empty.
Matrix RowSubsetCovariance(const Matrix& data, const std::vector<size_t>& rows);

/// d x d correlation matrix. Columns with zero variance produce zero
/// off-diagonal entries and a unit diagonal (the paper's recommendation is to
/// discard such columns before analysis; keeping them inert is the safe
/// default here).
Matrix CorrelationMatrix(const Matrix& data);

/// Pearson correlation of two equally-sized samples; 0 if either side has
/// zero variance.
double PearsonCorrelation(const Vector& a, const Vector& b);

/// Spearman rank correlation (Pearson on average ranks, handling ties).
double SpearmanCorrelation(const Vector& a, const Vector& b);

/// Average ranks (1-based; ties share the mean of their positions).
Vector AverageRanks(const Vector& values);

}  // namespace cohere

#endif  // COHERE_STATS_COVARIANCE_H_
