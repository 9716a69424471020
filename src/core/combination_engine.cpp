#include "core/combination_engine.hpp"

#include <algorithm>
#include <utility>

namespace hygcn {

CombinationEngine::CombinationEngine(const HyGCNConfig &config,
                                     MemoryCoordinator &coordinator,
                                     EnergyLedger &ledger, StatGroup &stats)
    : config_(config), coordinator_(coordinator), ledger_(ledger),
      stats_(stats),
      weightBuf_(config.weightBufBytes, Counter::BufWeightReadBytes,
                 Counter::BufWeightWriteBytes, Energy::CombEngine,
                 config.energy),
      outputBuf_(config.outputBufBytes, Counter::BufOutputReadBytes,
                 Counter::BufOutputWriteBytes, Energy::CombEngine,
                 config.energy),
      aggBuf_(config.aggBufBytes, Counter::BufAggReadBytes,
              Counter::BufAggWriteBytes, Energy::Coordinator,
              config.energy)
{
}

SystolicGeometry
CombinationEngine::activeGeometry() const
{
    SystolicGeometry geom;
    geom.cols = config_.moduleCols;
    geom.rows = cooperative()
                    ? config_.moduleRows * config_.systolicModules
                    : config_.moduleRows;
    return geom;
}

Cycle
CombinationEngine::beginLayer(std::uint64_t param_bytes,
                              const AddressMap &amap, Cycle now)
{
    layerParamBytes_ = param_bytes;
    weightsResident_ = weightBuf_.fits(param_bytes);
    if (!weightsResident_)
        return now;
    std::vector<MemRequest> reqs;
    emitLines(reqs, amap.weightBase, 0, param_bytes, RequestType::Weight,
              false);
    const Cycle done = coordinator_.issueBatch(std::move(reqs), now);
    weightBuf_.write(param_bytes, ledger_, stats_);
    // The phase's energy: the HBM fetch of the parameters plus the
    // Weight Buffer fill (the same charges the ledger just took,
    // tracked separately so SimReport can expose the batch-invariant
    // split). The DRAM share is charged to the ledger later, from
    // aggregate traffic, at the same per-byte rate.
    weightLoadEnergyPj_ +=
        config_.energy.hbmPerByte() * static_cast<double>(param_bytes) +
        config_.energy.edramPerByte(config_.weightBufBytes) *
            static_cast<double>(param_bytes);
    stats_.add(Counter::CombWeightLoadCycles, done - now);
    return done;
}

CombIntervalTiming
CombinationEngine::processInterval(
    VertexId vertex_count, std::span<const Matrix> weights,
    std::span<const std::vector<float>> biases, Activation activation,
    Matrix *agg_rows, Matrix *out_rows, Cycle start,
    const AddressMap &amap, Addr output_base, std::uint64_t output_offset,
    Cycle agg_interval_cycles)
{
    CombIntervalTiming timing;
    if (vertex_count == 0) {
        timing.finish = start;
        return timing;
    }

    Cycle now = start;
    // Streamed weights: reload the whole parameter set per interval.
    if (!weightsResident_ && layerParamBytes_ > 0) {
        std::vector<MemRequest> reqs;
        emitLines(reqs, amap.weightBase, 0, layerParamBytes_,
                  RequestType::Weight, false);
        now = coordinator_.issueBatch(std::move(reqs), now);
        weightBuf_.write(layerParamBytes_, ledger_, stats_);
    }

    const SystolicGeometry geom = activeGeometry();
    // Independent mode: each module streams a small group of
    // moduleRows vertices per pass (just enough to hide the weight
    // tile swap); cooperative mode assembles the whole interval.
    const std::uint64_t group =
        cooperative() ? vertex_count
                      : std::max<std::uint64_t>(1, geom.rows);
    const std::uint64_t per_round =
        cooperative() ? vertex_count
                      : group * config_.systolicModules;
    const std::uint64_t waves =
        cooperative() ? 1 : (vertex_count + per_round - 1) / per_round;

    Cycle per_wave = 0;       // cycles for one group/wave, all stages
    std::uint64_t weight_reads = 0;
    std::uint64_t f_out_final = 0;
    std::uint64_t agg_read_bytes = 0;
    for (std::size_t s = 0; s < weights.size(); ++s) {
        const std::uint64_t f_in = weights[s].rows();
        const std::uint64_t f_out = weights[s].cols();
        // In cooperative mode the chain reads weights from the
        // buffer once per batch and forwards them module to module;
        // in independent mode every module streams its own copy for
        // every vertex it processes.
        const SystolicCost cost =
            systolicBatchCost(geom, group, f_in, f_out, false);
        per_wave += cost.cycles;
        // One weight stream per (module, group) pass.
        const std::uint64_t streams =
            cooperative() ? 1
                          : (vertex_count + group - 1) / group;
        weight_reads += cost.weightReadBytes * streams;
        f_out_final = f_out;
        if (s == 0)
            agg_read_bytes = static_cast<std::uint64_t>(vertex_count) *
                             f_in * kElemBytes;
    }
    // MAC count is exact work, independent of schedule.
    std::uint64_t macs = 0;
    for (const Matrix &w : weights)
        macs += static_cast<std::uint64_t>(vertex_count) * w.rows() *
                w.cols();

    const Cycle compute = waves * per_wave;
    timing.computeCycles = compute;
    const Cycle compute_done = now + compute;

    // Write output features off-chip (they are the next layer input).
    const std::uint64_t out_bytes =
        static_cast<std::uint64_t>(vertex_count) * f_out_final * kElemBytes;
    std::vector<MemRequest> wreqs;
    emitLines(wreqs, output_base, output_offset, out_bytes,
              RequestType::OutputFeature, true);
    timing.finish = coordinator_.issueBatch(std::move(wreqs), compute_done);

    // --- Energy ---------------------------------------------------
    ledger_.charge(Energy::CombEngine,
                   config_.energy.macOp * static_cast<double>(macs));
    weightBuf_.read(weight_reads, ledger_, stats_);
    outputBuf_.write(out_bytes, ledger_, stats_);
    aggBuf_.read(agg_read_bytes, ledger_, stats_);
    ledger_.charge(Energy::CombEngine,
                   config_.energy.activationOp *
                       static_cast<double>(vertex_count) * f_out_final);
    ledger_.charge(Energy::CombEngine,
                   config_.energy.controlOp *
                       static_cast<double>(vertex_count));
    stats_.add(Counter::CombVertices, vertex_count);
    stats_.add(Counter::CombMacs, macs);
    stats_.add(Counter::CombBusyCycles, compute);

    // --- Vertex latency model (Fig 16c) ----------------------------
    // Latency of a vertex = time from the start of its interval's
    // aggregation to its combined output. Energy-aware assembly
    // serializes the two phases behind a barrier; latency-aware
    // streaming lets small groups combine while later vertices still
    // aggregate, so only the slower phase bounds the span.
    if (cooperative()) {
        timing.avgVertexLatency =
            static_cast<double>(agg_interval_cycles + compute) +
            geom.rows + geom.cols;
    } else {
        timing.avgVertexLatency =
            static_cast<double>(
                std::max<Cycle>(agg_interval_cycles, compute)) +
            static_cast<double>(per_wave);
    }

    // --- Functional path -------------------------------------------
    if (agg_rows && out_rows) {
        *out_rows = combineRows(std::move(*agg_rows), weights, biases,
                                activation, functionalThreads_);
    }
    return timing;
}

Cycle
CombinationEngine::processDenseWork(std::uint64_t group_size,
                                    std::uint64_t f_in,
                                    std::uint64_t f_out, Cycle start)
{
    if (group_size == 0 || f_in == 0 || f_out == 0)
        return start;
    const SystolicGeometry geom = activeGeometry();
    const SystolicCost cost =
        systolicBatchCost(geom, group_size, f_in, f_out, false);
    const std::uint64_t arrays =
        cooperative() ? 1 : config_.systolicModules;
    const Cycle cycles =
        cooperative() ? cost.cycles
                      : std::max<Cycle>(1, cost.cycles / arrays);
    ledger_.charge(Energy::CombEngine,
                   config_.energy.macOp * static_cast<double>(cost.macs));
    weightBuf_.read(cost.weightReadBytes, ledger_, stats_);
    stats_.add(Counter::CombMacs, cost.macs);
    stats_.add(Counter::CombBusyCycles, cycles);
    return start + cycles;
}

} // namespace hygcn
