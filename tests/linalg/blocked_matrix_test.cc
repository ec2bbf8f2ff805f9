#include "linalg/blocked_matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../test_util.h"

namespace cohere {
namespace {

using testing_util::RandomMatrix;

TEST(BlockedMatrixTest, EmptyMatrix) {
  BlockedMatrix b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.rows(), 0u);
  EXPECT_EQ(b.cols(), 0u);
}

TEST(BlockedMatrixTest, PreservesValuesAndShape) {
  Rng rng(7);
  const Matrix m = RandomMatrix(37, 5, &rng);
  BlockedMatrix b(m);
  EXPECT_EQ(b.rows(), 37u);
  EXPECT_EQ(b.cols(), 5u);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(b.At(i, j), m.At(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(BlockedMatrixTest, RowMajorLayoutWithRowPtr) {
  Rng rng(11);
  const Matrix m = RandomMatrix(20, 3, &rng);
  BlockedMatrix b(m);
  // Plain row-major: RowPtr(i) == data() + i * cols, rows contiguous.
  for (size_t i = 0; i < b.rows(); ++i) {
    EXPECT_EQ(b.RowPtr(i), b.data() + i * b.cols());
    for (size_t j = 0; j < b.cols(); ++j) {
      EXPECT_EQ(b.RowPtr(i)[j], m.At(i, j));
    }
  }
}

TEST(BlockedMatrixTest, SixtyFourByteAlignment) {
  Rng rng(13);
  BlockedMatrix b(RandomMatrix(18, 7, &rng));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % BlockedMatrix::kAlignment,
            0u);
}

TEST(BlockedMatrixTest, ToMatrixRoundTrips) {
  Rng rng(23);
  const Matrix m = RandomMatrix(29, 9, &rng);
  const Matrix back = BlockedMatrix(m).ToMatrix();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(back.At(i, j), m.At(i, j));
    }
  }
}

TEST(BlockedMatrixTest, RowCopiesOneRow) {
  Rng rng(29);
  const Matrix m = RandomMatrix(17, 4, &rng);
  BlockedMatrix b(m);
  const Vector row = b.Row(16);
  ASSERT_EQ(row.size(), 4u);
  for (size_t j = 0; j < 4; ++j) EXPECT_EQ(row[j], m.At(16, j));
}

// A view of `rows` rows grown one AppendRow at a time from a single-row
// matrix, so its allocation has spare capacity past the view.
BlockedMatrix GrownByAppends(const Matrix& m) {
  Matrix first(1, m.cols());
  first.SetRow(0, m.Row(0));
  BlockedMatrix b(first);
  for (size_t i = 1; i < m.rows(); ++i) b = b.AppendRow(m.Row(i));
  return b;
}

void ExpectSameRows(const BlockedMatrix& b, const Matrix& m) {
  ASSERT_EQ(b.rows(), m.rows());
  ASSERT_EQ(b.cols(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(b.At(i, j), m.At(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(BlockedMatrixTest, AppendRowToExactSizeStorageCopiesOnce) {
  Rng rng(31);
  const Matrix m = RandomMatrix(6, 3, &rng);
  const Matrix extra = RandomMatrix(7, 3, &rng);
  const BlockedMatrix exact(m);
  const BlockedMatrix first = exact.AppendRow(extra.Row(0));
  // The exact-size allocation is full, so the first append moves to a new
  // one with room for twice the rows; the next five fill it in place.
  EXPECT_NE(first.data(), exact.data());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(first.data()) %
                BlockedMatrix::kAlignment,
            0u);
  BlockedMatrix grown = first;
  for (size_t i = 1; i < 6; ++i) {
    grown = grown.AppendRow(extra.Row(i));
    EXPECT_EQ(grown.data(), first.data()) << "append " << i;
  }
  EXPECT_NE(grown.AppendRow(extra.Row(6)).data(), first.data());

  ExpectSameRows(exact, m);
  ASSERT_EQ(grown.rows(), 12u);
  for (size_t i = 0; i < 12; ++i) {
    const Vector want = i < 6 ? m.Row(i) : extra.Row(i - 6);
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(grown.At(i, j), want[j]);
  }
}

TEST(BlockedMatrixTest, AppendRowLeavesEveryEarlierViewUnchanged) {
  Rng rng(37);
  const Matrix m = RandomMatrix(40, 5, &rng);
  std::vector<BlockedMatrix> views;
  Matrix first(1, m.cols());
  first.SetRow(0, m.Row(0));
  views.emplace_back(first);
  for (size_t i = 1; i < m.rows(); ++i) {
    views.push_back(views.back().AppendRow(m.Row(i)));
  }
  for (size_t v = 0; v < views.size(); ++v) {
    ASSERT_EQ(views[v].rows(), v + 1);
    for (size_t i = 0; i <= v; ++i) {
      for (size_t j = 0; j < m.cols(); ++j) {
        EXPECT_EQ(views[v].At(i, j), m.At(i, j));
      }
    }
  }
}

TEST(BlockedMatrixTest, SecondAppendToOneViewForksIntoNewStorage) {
  Rng rng(41);
  const Matrix m = RandomMatrix(5, 4, &rng);
  const Matrix extra = RandomMatrix(2, 4, &rng);
  const BlockedMatrix base = GrownByAppends(m);  // capacity 8: room left
  const BlockedMatrix a = base.AppendRow(extra.Row(0));
  const BlockedMatrix b = base.AppendRow(extra.Row(1));
  // `a` took the free slot; `b` must not overwrite it.
  EXPECT_EQ(a.data(), base.data());
  EXPECT_NE(b.data(), base.data());
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(a.At(5, j), extra.At(0, j));
    EXPECT_EQ(b.At(5, j), extra.At(1, j));
  }
  ExpectSameRows(base, m);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 4; ++j) EXPECT_EQ(b.At(i, j), m.At(i, j));
  }
}

TEST(BlockedMatrixTest, AppendRowGrowsAnEmptyMatrix) {
  const BlockedMatrix empty(Matrix(0, 3));
  Vector row(3);
  row[0] = 1.0;
  row[1] = -2.0;
  row[2] = 0.5;
  const BlockedMatrix one = empty.AppendRow(row);
  ASSERT_EQ(one.rows(), 1u);
  ASSERT_EQ(one.cols(), 3u);
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(one.At(0, j), row[j]);
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace cohere
