#include "core/aggregation_engine.hpp"

#include <algorithm>

#include "mem/prefetcher.hpp"

namespace hygcn {

AggregationEngine::AggregationEngine(const HyGCNConfig &config,
                                     MemoryCoordinator &coordinator,
                                     EnergyLedger &ledger, StatGroup &stats)
    : config_(config), coordinator_(coordinator), ledger_(ledger),
      stats_(stats),
      edgeBuf_(config.edgeBufBytes, Counter::BufEdgeReadBytes,
               Counter::BufEdgeWriteBytes, Energy::AggEngine,
               config.energy),
      inputBuf_(config.inputBufBytes, Counter::BufInputReadBytes,
                Counter::BufInputWriteBytes, Energy::AggEngine,
                config.energy),
      aggBuf_(config.aggBufBytes, Counter::BufAggReadBytes,
              Counter::BufAggWriteBytes, Energy::Coordinator,
              config.energy)
{
}

Cycle
AggregationEngine::windowComputeCycles(EdgeId edges, int feature_len,
                                       double imbalance) const
{
    if (edges == 0)
        return 0;
    const std::uint64_t lanes = config_.totalLanes();
    if (config_.aggMode == AggMode::VertexDisperse) {
        // All lanes cooperate on one edge's feature elements.
        const Cycle per_edge =
            (static_cast<std::uint64_t>(feature_len) + lanes - 1) / lanes;
        return edges * std::max<Cycle>(1, per_edge);
    }
    // Vertex-concentrated: one vertex per core, simdWidth lanes each.
    const Cycle per_edge_core =
        (static_cast<std::uint64_t>(feature_len) + config_.simdWidth - 1) /
        config_.simdWidth;
    const double ideal = static_cast<double>(edges) *
                         static_cast<double>(per_edge_core) /
                         static_cast<double>(config_.simdCores);
    const double factor = std::clamp(
        imbalance, 1.0, static_cast<double>(config_.simdCores));
    return static_cast<Cycle>(ideal * factor) + 1;
}

AggIntervalTiming
AggregationEngine::processInterval(
    const CscView &view, const IntervalWork &work, int feature_len,
    AggOp op, const EdgeCoefFn &coef, const Matrix *x, Matrix *acc,
    std::vector<std::uint32_t> *touch, Cycle start, const AddressMap &amap,
    Addr input_base_override)
{
    const Addr input_base =
        input_base_override ? input_base_override : amap.inputBase;
    const std::uint64_t feat_bytes =
        static_cast<std::uint64_t>(feature_len) * kElemBytes;

    // Degree imbalance of the interval (vertex-concentrated mode).
    double imbalance = 1.0;
    if (config_.aggMode == AggMode::VertexConcentrated &&
        work.numVertices() > 0) {
        EdgeId max_deg = 0;
        for (VertexId v = work.dstBegin; v < work.dstEnd; ++v)
            max_deg = std::max(max_deg, view.inDegree(v));
        const double mean =
            static_cast<double>(work.totalEdges) / work.numVertices();
        imbalance = mean > 0 ? static_cast<double>(max_deg) / mean : 1.0;
    }

    DoubleBufferSchedule schedule(start);
    AggIntervalTiming timing;
    std::vector<MemRequest> reqs;

    for (const Window &window : work.windows) {
        // --- Off-chip loads: edges, then source feature rows.
        reqs.clear();
        const std::uint64_t edge_bytes = window.edges * kEdgeBytes;
        if (edge_bytes > 0) {
            emitLines(reqs, amap.edgeBase, edgeRegionOffset_, edge_bytes,
                      RequestType::Edge, false);
            edgeRegionOffset_ += edge_bytes;
        }
        const std::uint64_t row_bytes =
            static_cast<std::uint64_t>(window.loadedRows()) * feat_bytes;
        if (row_bytes > 0) {
            emitLines(reqs, input_base,
                      static_cast<std::uint64_t>(window.srcBegin) *
                          feat_bytes,
                      row_bytes, RequestType::InputFeature, false);
        }

        const Cycle compute =
            windowComputeCycles(window.edges, feature_len, imbalance);
        timing.computeCycles += compute;

        auto issue = [&](Cycle t) {
            return coordinator_.issueBatch(reqs, t);
        };
        schedule.stage(reqs.empty() ? nullptr
                                    : std::function<Cycle(Cycle)>(issue),
                       compute);

        // --- Buffer traffic and compute energy.
        edgeBuf_.write(edge_bytes, ledger_, stats_);
        edgeBuf_.read(edge_bytes, ledger_, stats_);
        inputBuf_.write(row_bytes, ledger_, stats_);
        const std::uint64_t edge_feat_bytes = window.edges * feat_bytes;
        inputBuf_.read(edge_feat_bytes, ledger_, stats_);
        // Read-modify-write of partial results in the Agg Buffer.
        aggBuf_.read(edge_feat_bytes, ledger_, stats_);
        aggBuf_.write(edge_feat_bytes, ledger_, stats_);

        ledger_.charge(Energy::AggEngine,
                       config_.energy.simdOp *
                           static_cast<double>(window.edges) * feature_len);
        ledger_.charge(Energy::AggEngine,
                       config_.energy.controlOp *
                           static_cast<double>(window.edges));
        stats_.add(Counter::AggEdges, window.edges);
        stats_.add(Counter::AggWindows);
        stats_.add(Counter::AggLoadedRows, window.loadedRows());
    }

    // --- Functional path: the whole interval in one call (see the
    // doc comment for why this equals the window-by-window folds).
    if (x && acc && touch) {
        aggregateWindow(view, op, coef, *x, work.dstBegin, work.dstEnd, 0,
                        view.numVertices, *acc, *touch, functionalThreads_);
    }

    // Mean finalization (divide by fold count) on the SIMD cores.
    if (op == AggOp::Mean) {
        const Cycle fin =
            (static_cast<std::uint64_t>(work.numVertices()) * feature_len +
             config_.totalLanes() - 1) /
            config_.totalLanes();
        timing.computeCycles += fin;
        schedule.stage(nullptr, fin);
        if (x && acc && touch)
            finalizeAggregation(op, *acc, *touch);
    }

    timing.finish = schedule.finish();
    stats_.add(Counter::AggBusyCycles, timing.computeCycles);
    return timing;
}

Cycle
AggregationEngine::processPlan(const CscView &view, const WindowPlan &plan,
                               int feature_len, const Matrix *x, Matrix *out,
                               Cycle start, const AddressMap &amap,
                               Addr input_base_override)
{
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    const bool functional = x != nullptr && out != nullptr;
    Cycle t = start;
    for (const IntervalWork &work : plan.intervals) {
        Matrix acc;
        std::vector<std::uint32_t> touch;
        if (functional) {
            acc = Matrix(work.numVertices(), feature_len);
            touch.assign(work.numVertices(), 0);
        }
        t = processInterval(view, work, feature_len, AggOp::Add, one, x,
                            functional ? &acc : nullptr,
                            functional ? &touch : nullptr, t, amap,
                            input_base_override).finish;
        if (functional) {
            std::copy(acc.data().begin(), acc.data().end(),
                      out->data().begin() +
                          static_cast<std::size_t>(work.dstBegin) *
                              feature_len);
        }
    }
    return t;
}

} // namespace hygcn
