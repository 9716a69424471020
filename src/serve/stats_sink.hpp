/**
 * @file
 * The one aggregation of ServeStats: running accumulators plus
 * deterministic reservoir percentiles, fed one batch at a time.
 * Streaming runs feed it at dispatch, so million-request runs never
 * materialize a RequestRecord per request; materialized runs feed it
 * from their records after the loop, in the same dispatch order and
 * with reservoirs that hold every sample, so both collection modes
 * share every formula and percentile convention (sim/stats), and
 * percentiles match exactly while the sample count fits the
 * reservoir. An optional periodic flush prints one running-stats
 * line every N served requests, in the spirit of a flow meter's
 * periodic stats dump, so multi-minute runs show a pulse.
 */

#ifndef HYGCN_SERVE_STATS_SINK_HPP
#define HYGCN_SERVE_STATS_SINK_HPP

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

#include "serve/serve_stats.hpp"
#include "serve/workload.hpp"
#include "sim/rng.hpp"

namespace hygcn::serve {

/**
 * Fixed-capacity uniform sample of a latency stream (Algorithm R on
 * sim/rng, so the kept sample is identical on every platform for a
 * given seed). Holds every sample until capacity, after which each
 * new sample replaces a uniformly-chosen slot with probability
 * capacity/seen — percentiles are exact below capacity and an
 * unbiased estimate beyond it. A bounded reservoir reserves its
 * capacity up front; an unbounded one holds every sample and grows
 * with what the stream offers.
 */
class LatencyReservoir
{
  public:
    /** Capacity of a reservoir that holds every sample. */
    static constexpr std::size_t kUnbounded =
        std::numeric_limits<std::size_t>::max();

    LatencyReservoir(std::size_t capacity, std::uint64_t seed);

    void add(double sample);

    /** Samples offered so far (not the count retained). */
    std::uint64_t seen() const { return seen_; }

    /** True while every offered sample is still held, i.e. while
     *  percentile() is exact rather than estimated. */
    bool exact() const { return seen_ <= capacity_; }

    /** Sorted copy of the retained samples. */
    std::vector<double> sorted() const;

    /** percentileSorted() over the retained samples (0 when empty). */
    double percentile(double p) const;

  private:
    std::size_t capacity_;
    std::uint64_t seen_ = 0;
    std::vector<double> samples_;
    Rng rng_;
};

/**
 * onBatch() folds each batch into running sums (mean/max latency,
 * queue wait, per-tenant SLO and served-share accounting, per-class
 * joules) and latency reservoirs; finish() assembles the ServeStats.
 * Instance records stay materialized in the scheduler — instances
 * are few — and feed the utilization and per-class rollups at
 * finish().
 */
class StreamingStatsSink
{
  public:
    /**
     * @p num_tenants / @p num_classes size the per-tenant and
     * per-class accumulators; @p reservoir_capacity bounds each
     * latency reservoir (LatencyReservoir::kUnbounded keeps every
     * sample); @p seed derives the reservoirs' replacement
     * streams; @p flush_every emits a running-stats line to
     * @p flush_to after every that-many served requests (0, or a
     * null stream, disables the pulse).
     */
    StreamingStatsSink(std::size_t num_tenants, std::size_t num_classes,
                       std::size_t reservoir_capacity,
                       std::uint64_t seed, std::uint64_t flush_every,
                       std::ostream *flush_to);

    /** Fold one batch (the members it charges, its timing, routed
     *  class, and energy) into the running aggregates. The batch
     *  counts toward batches and joules even with no members. */
    void onBatch(Cycle dispatch, Cycle completion, double joules,
                 std::uint32_t class_index,
                 const std::vector<ServeRequest> &members);

    /** Requests folded so far. */
    std::uint64_t requests() const { return requests_; }

    /**
     * Assemble the aggregate stats from the sink's accumulators plus
     * the scheduler's instance records. @p tenants is the resolved
     * tenant list (the single default tenant when the config
     * declares none) and @p class_labels the resolved instance-class
     * labels; instance records carry their classIndex.
     */
    ServeStats finish(const std::vector<InstanceRecord> &instances,
                      Cycle makespan, double clock_hz,
                      const std::vector<TenantMix> &tenants,
                      const std::vector<std::string> &class_labels) const;

  private:
    struct TenantAccum
    {
        std::uint64_t requests = 0;
        double latencySum = 0.0;
        std::uint64_t sloViolations = 0;
        double cycles = 0.0;
        double joules = 0.0;
        LatencyReservoir latencies;

        TenantAccum(std::size_t capacity, std::uint64_t seed)
            : latencies(capacity, seed)
        {}
    };

    void flushLine(Cycle up_to);

    std::uint64_t requests_ = 0;
    std::uint64_t batches_ = 0;
    double waitSum_ = 0.0;
    double latencySum_ = 0.0;
    double maxLatency_ = 0.0;
    double totalJoules_ = 0.0;
    double totalCycles_ = 0.0;
    LatencyReservoir latencies_;
    std::vector<TenantAccum> tenants_;
    std::vector<double> classJoules_;

    std::uint64_t flushEvery_;
    std::uint64_t nextFlush_;
    std::ostream *flushTo_;
};

} // namespace hygcn::serve

#endif // HYGCN_SERVE_STATS_SINK_HPP
