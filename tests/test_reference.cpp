#include <gtest/gtest.h>

#include <cmath>

#include "graph/generator.hpp"
#include "model/reference.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

/** Path graph 0-1-2 with known hand-computed GCN aggregation. */
Graph
path3()
{
    return Graph::fromEdges(3, {{0, 1}, {1, 2}}, true);
}

} // namespace

TEST(Reference, AddAggregationHandComputed)
{
    const Graph g = path3();
    const EdgeSet es = EdgeSet::fromGraph(g, false);
    Matrix x(3, 1);
    x.at(0, 0) = 1.0f;
    x.at(1, 0) = 2.0f;
    x.at(2, 0) = 4.0f;
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    const Matrix a = aggregateFull(es.view(), AggOp::Add, one, x);
    EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f); // neighbor 1
    EXPECT_FLOAT_EQ(a.at(1, 0), 5.0f); // neighbors 0+2
    EXPECT_FLOAT_EQ(a.at(2, 0), 2.0f); // neighbor 1
}

TEST(Reference, GcnNormAggregationHandComputed)
{
    const Graph g = path3();
    const EdgeSet es = EdgeSet::fromGraph(g, true); // self loops
    Matrix x(3, 1);
    x.at(0, 0) = 1.0f;
    x.at(1, 0) = 1.0f;
    x.at(2, 0) = 1.0f;
    const auto inv = invSqrtDegreesPlusSelf(g);
    const EdgeCoefFn coef(EdgeCoefKind::GcnNorm, inv, 0.0f);
    const Matrix a = aggregateFull(es.view(), AggOp::Add, coef, x);
    // Vertex 0: deg+1=2; neighbors {0,1}: 1/2 + 1/sqrt(2*3).
    EXPECT_NEAR(a.at(0, 0), 0.5f + 1.0f / std::sqrt(6.0f), 1e-6f);
    // Vertex 1: deg+1=3; {0,1,2}: 1/sqrt(6) + 1/3 + 1/sqrt(6).
    EXPECT_NEAR(a.at(1, 0), 2.0f / std::sqrt(6.0f) + 1.0f / 3.0f,
                1e-6f);
}

TEST(Reference, MaxMinAggregation)
{
    const Graph g = path3();
    const EdgeSet es = EdgeSet::fromGraph(g, true);
    Matrix x(3, 2);
    x.at(0, 0) = -1.0f;
    x.at(1, 0) = 5.0f;
    x.at(2, 0) = 3.0f;
    x.at(0, 1) = 2.0f;
    x.at(1, 1) = 0.0f;
    x.at(2, 1) = -7.0f;
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    const Matrix mx = aggregateFull(es.view(), AggOp::Max, one, x);
    EXPECT_FLOAT_EQ(mx.at(1, 0), 5.0f);
    EXPECT_FLOAT_EQ(mx.at(1, 1), 2.0f);
    const Matrix mn = aggregateFull(es.view(), AggOp::Min, one, x);
    EXPECT_FLOAT_EQ(mn.at(1, 0), -1.0f);
    EXPECT_FLOAT_EQ(mn.at(1, 1), -7.0f);
}

TEST(Reference, MeanAggregationDividesByCount)
{
    const Graph g = path3();
    const EdgeSet es = EdgeSet::fromGraph(g, true);
    Matrix x(3, 1);
    x.at(0, 0) = 3.0f;
    x.at(1, 0) = 6.0f;
    x.at(2, 0) = 9.0f;
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    const Matrix m = aggregateFull(es.view(), AggOp::Mean, one, x);
    EXPECT_FLOAT_EQ(m.at(1, 0), 6.0f); // (3+6+9)/3
    EXPECT_FLOAT_EQ(m.at(0, 0), 4.5f); // (3+6)/2
}

TEST(Reference, IsolatedVertexStaysZeroWithoutSelfLoop)
{
    const Graph g = Graph::fromEdges(3, {{0, 1}}, true);
    const EdgeSet es = EdgeSet::fromGraph(g, false);
    Matrix x(3, 1);
    x.at(2, 0) = 42.0f;
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    for (AggOp op : {AggOp::Add, AggOp::Max, AggOp::Min, AggOp::Mean}) {
        const Matrix a = aggregateFull(es.view(), op, one, x);
        EXPECT_EQ(a.at(2, 0), 0.0f);
    }
}

TEST(Reference, WindowedAggregationBitExactVsFull)
{
    Rng rng(4);
    const Graph g =
        Graph::fromEdges(60, generateUniform(60, 200, rng), true);
    const EdgeSet es = EdgeSet::fromGraph(g, true);
    Matrix x(60, 5);
    x.fillRandom(rng);
    const auto inv = invSqrtDegreesPlusSelf(g);
    const EdgeCoefFn coef(EdgeCoefKind::GcnNorm, inv, 0.0f);

    const Matrix full =
        aggregateFull(es.view(), AggOp::Add, coef, x);

    // Recompute in 7-row windows; must match bit-exactly.
    Matrix acc(60, 5);
    std::vector<std::uint32_t> touch(60, 0);
    for (VertexId s = 0; s < 60; s += 7) {
        aggregateWindow(es.view(), AggOp::Add, coef, x, 0, 60, s,
                        std::min<VertexId>(s + 7, 60), acc, touch);
    }
    finalizeAggregation(AggOp::Add, acc, touch);
    EXPECT_TRUE(Matrix::bytesEqual(full, acc));
}

TEST(Reference, CombineAppliesWeightsBiasRelu)
{
    Matrix acc(1, 2);
    acc.at(0, 0) = 1.0f;
    acc.at(0, 1) = -2.0f;
    Matrix w(2, 2);
    w.at(0, 0) = 1.0f;
    w.at(1, 1) = 1.0f;
    std::vector<std::vector<float>> biases = {{0.5f, 0.0f}};
    std::vector<Matrix> weights = {w};
    const Matrix out =
        combineRows(acc, weights, biases, Activation::ReLU);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.5f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f); // ReLU(-2)
}

TEST(Reference, TwoStageMlp)
{
    Matrix acc(1, 1);
    acc.at(0, 0) = 2.0f;
    Matrix w1(1, 1), w2(1, 1);
    w1.at(0, 0) = 3.0f;
    w2.at(0, 0) = -1.0f;
    std::vector<Matrix> weights = {w1, w2};
    std::vector<std::vector<float>> biases = {{0.0f}, {10.0f}};
    const Matrix out =
        combineRows(acc, weights, biases, Activation::ReLU);
    // stage1: relu(6)=6; stage2: relu(-6+10)=4.
    EXPECT_FLOAT_EQ(out.at(0, 0), 4.0f);
}

TEST(Reference, ReadoutSumAndConcat)
{
    std::vector<Matrix> outs;
    Matrix l1(4, 2), l2(4, 1);
    for (std::size_t v = 0; v < 4; ++v) {
        l1.at(v, 0) = static_cast<float>(v);
        l1.at(v, 1) = 1.0f;
        l2.at(v, 0) = 10.0f * v;
    }
    outs.push_back(l1);
    outs.push_back(l2);
    const std::vector<VertexId> boundaries = {0, 2, 4};

    const Matrix sum = computeReadout(outs, boundaries, false);
    ASSERT_EQ(sum.rows(), 2u);
    ASSERT_EQ(sum.cols(), 1u);
    EXPECT_FLOAT_EQ(sum.at(0, 0), 10.0f); // 0+10
    EXPECT_FLOAT_EQ(sum.at(1, 0), 50.0f); // 20+30

    const Matrix cat = computeReadout(outs, boundaries, true);
    ASSERT_EQ(cat.cols(), 3u);
    EXPECT_FLOAT_EQ(cat.at(0, 0), 1.0f);  // l1 col0: 0+1
    EXPECT_FLOAT_EQ(cat.at(0, 1), 2.0f);  // l1 col1: 1+1
    EXPECT_FLOAT_EQ(cat.at(0, 2), 10.0f); // l2
}

TEST(Reference, FullModelRunsAllFour)
{
    Rng rng(9);
    const Graph g =
        Graph::fromEdges(40, generateUniform(40, 120, rng), true);
    Matrix x(40, 12);
    x.fillRandom(rng, 0.0f, 1.0f);
    const std::vector<VertexId> boundaries = {0, 20, 40};
    const ReferenceExecutor ref(g, boundaries);
    for (ModelId id : allModels()) {
        const ModelConfig m = makeModel(id, 12);
        const ModelParams p = makeParams(m, 3);
        const ReferenceResult r = ref.run(m, p, x, 7, true);
        EXPECT_FALSE(r.layerOutputs.empty()) << modelAbbrev(id);
        if (id == ModelId::DFP) {
            ASSERT_EQ(r.pooledX.size(), 2u);
            EXPECT_EQ(r.pooledX[0].rows(), 128u);
            EXPECT_EQ(r.pooledA[0].cols(), 128u);
        } else {
            EXPECT_EQ(r.readout.rows(), 2u);
        }
    }
}

TEST(Reference, DiffPoolAssignmentRowsAreDistributions)
{
    Rng rng(10);
    const Graph g =
        Graph::fromEdges(30, generateUniform(30, 90, rng), true);
    Matrix x(30, 8);
    x.fillRandom(rng, 0.0f, 1.0f);
    const ReferenceExecutor ref(g);
    const ModelConfig m = makeModel(ModelId::DFP, 8);
    const ModelParams p = makeParams(m, 4);
    const ReferenceResult r = ref.run(m, p, x, 7);
    const Matrix &c = r.layerOutputs[0];
    for (std::size_t row = 0; row < c.rows(); ++row) {
        float sum = 0.0f;
        for (float v : c.row(row))
            sum += v;
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
    }
}
