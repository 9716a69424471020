/**
 * @file
 * Minimal dense row-major float matrix used for feature matrices,
 * MLP weights, and the DiffPool assignment math. Only the operations
 * the GCN models need; not a general linear-algebra library.
 */

#ifndef HYGCN_MODEL_MATRIX_HPP
#define HYGCN_MODEL_MATRIX_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hygcn {

class Rng;

/** Dense row-major float matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix, zero initialized. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    float &at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const
    { return data_[r * cols_ + c]; }

    /** Mutable view of row @p r. */
    std::span<float> row(std::size_t r)
    { return {data_.data() + r * cols_, cols_}; }

    /** Read-only view of row @p r. */
    std::span<const float> row(std::size_t r) const
    { return {data_.data() + r * cols_, cols_}; }

    std::span<const float> data() const { return data_; }
    std::span<float> data() { return data_; }

    /** Fill with deterministic uniform values in [lo, hi). */
    void fillRandom(Rng &rng, float lo = -0.5f, float hi = 0.5f);

    /** this (m x k) times other (k x n) -> (m x n). */
    Matrix matmul(const Matrix &other) const;

    /** transpose(this) (k x m) times other... i.e. this^T * other. */
    Matrix matmulTransposedSelf(const Matrix &other) const;

    /** Elementwise ReLU in place. */
    void reluInPlace();

    /** Row-wise softmax in place. */
    void softmaxRowsInPlace();

    /** Copy of rows [begin, end). */
    Matrix rowSlice(std::size_t begin, std::size_t end) const;

    /** Max |a-b| over all elements; matrices must be same shape. */
    static float maxAbsDiff(const Matrix &a, const Matrix &b);

    /**
     * Same shape and the same bytes. Stricter than a zero maxAbsDiff,
     * which cannot see a NaN or a -0.0/+0.0 difference.
     */
    static bool bytesEqual(const Matrix &a, const Matrix &b);

    bool sameShape(const Matrix &other) const
    { return rows_ == other.rows_ && cols_ == other.cols_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace hygcn

#endif // HYGCN_MODEL_MATRIX_HPP
