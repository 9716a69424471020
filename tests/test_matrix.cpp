#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "model/matrix.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

TEST(Matrix, ZeroInitialized)
{
    const Matrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(m.at(r, c), 0.0f);
}

TEST(Matrix, MatmulKnownValues)
{
    Matrix a(2, 3), b(3, 2);
    float av[] = {1, 2, 3, 4, 5, 6};
    float bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data().begin());
    std::copy(bv, bv + 6, b.data().begin());
    const Matrix c = a.matmul(b);
    EXPECT_EQ(c.rows(), 2u);
    EXPECT_EQ(c.cols(), 2u);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matrix, MatmulShapeMismatchThrows)
{
    Matrix a(2, 3), b(2, 2);
    EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Matrix, MatmulTransposedSelfEqualsExplicit)
{
    Rng rng(5);
    Matrix a(7, 4), b(7, 3);
    a.fillRandom(rng);
    b.fillRandom(rng);
    const Matrix t = a.matmulTransposedSelf(b); // a^T * b, 4x3
    ASSERT_EQ(t.rows(), 4u);
    ASSERT_EQ(t.cols(), 3u);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            float expect = 0.0f;
            for (std::size_t k = 0; k < 7; ++k)
                expect += a.at(k, i) * b.at(k, j);
            EXPECT_NEAR(t.at(i, j), expect, 1e-5f);
        }
    }
}

TEST(Matrix, ReluClampsNegatives)
{
    Matrix m(1, 4);
    m.at(0, 0) = -1.0f;
    m.at(0, 1) = 2.0f;
    m.at(0, 2) = -0.5f;
    m.at(0, 3) = 0.0f;
    m.reluInPlace();
    EXPECT_EQ(m.at(0, 0), 0.0f);
    EXPECT_EQ(m.at(0, 1), 2.0f);
    EXPECT_EQ(m.at(0, 2), 0.0f);
}

TEST(Matrix, SoftmaxRowsSumToOne)
{
    Rng rng(6);
    Matrix m(5, 8);
    m.fillRandom(rng, -4.0f, 4.0f);
    m.softmaxRowsInPlace();
    for (std::size_t r = 0; r < 5; ++r) {
        float sum = 0.0f;
        for (float v : m.row(r)) {
            EXPECT_GT(v, 0.0f);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Matrix, SoftmaxNumericallyStableForLargeInputs)
{
    Matrix m(1, 3);
    m.at(0, 0) = 1000.0f;
    m.at(0, 1) = 1001.0f;
    m.at(0, 2) = 999.0f;
    m.softmaxRowsInPlace();
    float sum = 0.0f;
    for (float v : m.row(0)) {
        EXPECT_TRUE(std::isfinite(v));
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(Matrix, RowSlice)
{
    Matrix m(4, 2);
    for (std::size_t r = 0; r < 4; ++r)
        m.at(r, 0) = static_cast<float>(r);
    const Matrix s = m.rowSlice(1, 3);
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_EQ(s.at(0, 0), 1.0f);
    EXPECT_EQ(s.at(1, 0), 2.0f);
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix a(2, 2), b(2, 2);
    b.at(1, 1) = -3.5f;
    EXPECT_FLOAT_EQ(Matrix::maxAbsDiff(a, b), 3.5f);
    Matrix c(2, 3);
    EXPECT_THROW(Matrix::maxAbsDiff(a, c), std::invalid_argument);
}

TEST(Matrix, BytesEqualSeesWhatMaxAbsDiffCannot)
{
    Matrix a(2, 2), b(2, 2);
    EXPECT_TRUE(Matrix::bytesEqual(a, b));
    b.at(0, 1) = -0.0f;
    EXPECT_EQ(Matrix::maxAbsDiff(a, b), 0.0f);
    EXPECT_FALSE(Matrix::bytesEqual(a, b));
    b.at(0, 1) = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(Matrix::maxAbsDiff(a, b), 0.0f);
    EXPECT_FALSE(Matrix::bytesEqual(a, b));
    a.at(0, 1) = b.at(0, 1);
    EXPECT_TRUE(Matrix::bytesEqual(a, b));
    EXPECT_FALSE(Matrix::bytesEqual(a, Matrix(2, 3)));
    EXPECT_TRUE(Matrix::bytesEqual(Matrix(0, 3), Matrix(0, 3)));
}

TEST(Matrix, FillRandomDeterministic)
{
    Rng r1(3), r2(3);
    Matrix a(3, 3), b(3, 3);
    a.fillRandom(r1);
    b.fillRandom(r2);
    EXPECT_EQ(Matrix::maxAbsDiff(a, b), 0.0f);
}
