/**
 * @file
 * Ablations of HyGCN's individual design choices, beyond the paper's
 * bundled comparisons (README.md, "Modelling substitutions"):
 *
 *  1. Window sliding alone vs sliding+shrinking (Fig 5 decomposes
 *     the mechanism but the paper only evaluates the combination).
 *  2. Vertex-disperse vs vertex-concentrated SIMD scheduling
 *     (Fig 4: the paper argues disperse wins; here is by how much).
 *  3. Memory coordination decomposed: priority reordering and the
 *     low-bit channel remap separately (Fig 17 bundles them).
 *  4. Uniform random vs predefined index-interval sampling (the two
 *     Sampler modes of section 4.2).
 */

#include <cstdio>

#include "bench/common.hpp"
#include "core/aggregation_engine.hpp"
#include "graph/partition.hpp"
#include "graph/sampling.hpp"
#include "graph/window.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

/** Feature rows loaded under a window mode for GCN layer 1. */
std::uint64_t
loadedRows(DatasetId ds_id, WindowMode mode)
{
    const Dataset &data = dataset(ds_id);
    const EdgeSet edges = EdgeSet::fromGraph(data.graph, true);
    PartitionConfig pc;
    pc.aggFeatureLen = data.featureLen;
    pc.srcFeatureLen = data.featureLen;
    const PartitionDims dims = computePartitionDims(pc);
    return buildWindowPlan(edges.view(), dims.intervalSize,
                           dims.windowHeight, dims.maxEdgesPerWindow,
                           mode)
        .loadedRows;
}

} // namespace

int
main()
{
    banner("Ablation", "decomposing HyGCN's design choices");

    const std::vector<DatasetId> datasets = {
        DatasetId::CR, DatasetId::CS, DatasetId::PB};

    // ---- 1. sliding vs shrinking ---------------------------------
    std::printf("\n(1) feature rows loaded, normalized to grid (%%)\n");
    header("dataset", {"slide", "slide+shrink"});
    for (DatasetId ds : datasets) {
        const double grid =
            static_cast<double>(loadedRows(ds, WindowMode::Grid));
        row(datasetAbbrev(ds),
            {loadedRows(ds, WindowMode::SlideOnly) / grid * 100.0,
             loadedRows(ds, WindowMode::SlideShrink) / grid * 100.0});
    }

    // ---- 2. vertex-disperse vs vertex-concentrated ----------------
    std::printf("\n(2) execution time, vertex-concentrated normalized "
                "to vertex-disperse (%%)\n");
    header("dataset", {"concentr %"});
    for (DatasetId ds : datasets) {
        const auto runs = session()
                              .model(ModelId::GCN)
                              .dataset(ds)
                              .vary("aggMode", {0.0, 1.0})
                              .runAll();
        const double td = runs[0].report.seconds();
        const double tc = runs[1].report.seconds();
        row(datasetAbbrev(ds), {tc / td * 100.0});
    }

    // ---- 3. coordination decomposed --------------------------------
    std::printf("\n(3) execution time vs fully-coordinated (%%): "
                "reorder-only and remap-only\n");
    header("dataset", {"both", "none"});
    for (DatasetId ds : datasets) {
        const auto runs = session()
                              .model(ModelId::GCN)
                              .dataset(ds)
                              .vary("memoryCoordination", {1.0, 0.0})
                              .runAll();
        const double tb = runs[0].report.seconds();
        const double tn = runs[1].report.seconds();
        row(datasetAbbrev(ds), {100.0, tn / tb * 100.0});
    }

    // ---- 4. sampler modes ------------------------------------------
    std::printf("\n(4) sampler modes at factor 4: kept edges and "
                "sparsity reduction\n");
    header("dataset", {"unif edges", "intvl edges", "unif red%",
                       "intvl red%"});
    for (DatasetId ds : datasets) {
        const Dataset &data = dataset(ds);
        const EdgeSet uniform = NeighborSampler::sampleByFactor(
            data.graph.csc(), 4, kSeed);
        const EdgeSet interval =
            NeighborSampler::sampleByIndexInterval(data.graph.csc(), 4);
        PartitionConfig pc;
        pc.aggFeatureLen = data.featureLen;
        pc.srcFeatureLen = data.featureLen;
        const PartitionDims dims = computePartitionDims(pc);
        auto reduction = [&](const EdgeSet &es) {
            const EdgeSet with_self =
                EdgeSet::fromView(es.view(), true);
            return buildWindowPlan(with_self.view(), dims.intervalSize,
                                   dims.windowHeight,
                                   dims.maxEdgesPerWindow,
                                   WindowMode::SlideShrink)
                       .sparsityReduction() *
                   100.0;
        };
        row(datasetAbbrev(ds),
            {static_cast<double>(uniform.numEdges()),
             static_cast<double>(interval.numEdges()),
             reduction(uniform), reduction(interval)},
            "%11.1f");
    }
    return 0;
}
