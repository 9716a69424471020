#include "model/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "sim/rng.hpp"

namespace hygcn {

void
Matrix::fillRandom(Rng &rng, float lo, float hi)
{
    for (float &v : data_)
        v = rng.nextFloat(lo, hi);
}

Matrix
Matrix::matmul(const Matrix &other) const
{
    if (cols_ != other.rows_)
        throw std::invalid_argument("matmul shape mismatch");
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const float a = at(i, k);
            if (a == 0.0f)
                continue;
            const auto brow = other.row(k);
            auto orow = out.row(i);
            for (std::size_t j = 0; j < other.cols_; ++j)
                orow[j] += a * brow[j];
        }
    }
    return out;
}

Matrix
Matrix::matmulTransposedSelf(const Matrix &other) const
{
    if (rows_ != other.rows_)
        throw std::invalid_argument("matmulTransposedSelf shape mismatch");
    Matrix out(cols_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        const auto arow = row(i);
        const auto brow = other.row(i);
        for (std::size_t k = 0; k < cols_; ++k) {
            const float a = arow[k];
            if (a == 0.0f)
                continue;
            auto orow = out.row(k);
            for (std::size_t j = 0; j < other.cols_; ++j)
                orow[j] += a * brow[j];
        }
    }
    return out;
}

void
Matrix::reluInPlace()
{
    for (float &v : data_)
        v = std::max(v, 0.0f);
}

void
Matrix::softmaxRowsInPlace()
{
    for (std::size_t r = 0; r < rows_; ++r) {
        auto vals = row(r);
        const float mx = *std::max_element(vals.begin(), vals.end());
        float sum = 0.0f;
        for (float &v : vals) {
            v = std::exp(v - mx);
            sum += v;
        }
        for (float &v : vals)
            v /= sum;
    }
}

Matrix
Matrix::rowSlice(std::size_t begin, std::size_t end) const
{
    assert(begin <= end && end <= rows_);
    Matrix out(end - begin, cols_);
    std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
              out.data_.begin());
    return out;
}

float
Matrix::maxAbsDiff(const Matrix &a, const Matrix &b)
{
    if (!a.sameShape(b))
        throw std::invalid_argument("maxAbsDiff shape mismatch");
    float mx = 0.0f;
    for (std::size_t i = 0; i < a.data_.size(); ++i)
        mx = std::max(mx, std::fabs(a.data_[i] - b.data_[i]));
    return mx;
}

bool
Matrix::bytesEqual(const Matrix &a, const Matrix &b)
{
    auto same_bits = [](float x, float y) {
        return std::bit_cast<std::uint32_t>(x) ==
               std::bit_cast<std::uint32_t>(y);
    };
    return a.sameShape(b) && std::equal(a.data_.begin(), a.data_.end(),
                                        b.data_.begin(), same_bits);
}

} // namespace hygcn
