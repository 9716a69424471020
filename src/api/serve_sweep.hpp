/**
 * @file
 * Cartesian sweeps over serving configurations, mirroring Session
 * for the serve layer: a ServeSweep starts from a base ServeConfig
 * (or a ServeSession under construction) and varies scheduling
 * policy x batch cost model x routing objective x routing lookahead
 * x affinity margin x cluster shape x max batch size x arrival rate
 * x arrival process x scaling policy x power cap x kernel threads x
 * seed, executing the expansion on the process's ThreadPool:
 *
 *   auto results = ServeSweep(session.config())
 *                      .policies({"fifo", "edf"})
 *                      .costModels({"marginal", "analytic"})
 *                      .objectives({"cycles", "edp"})
 *                      .arrivalRates({250000.0, 125000.0})
 *                      .runAll();   // 16 runs, expansion order
 *
 * Every run prices its scenarios through the process-wide
 * PricedScenarioCache, so the whole sweep performs one Platform run
 * per distinct (class, scenario, cost model, maxBatch) — varying the
 * policy or the arrival rate re-prices nothing, and cost models
 * share their unit runs. Results come back in expansion order
 * regardless of the worker count, and every run is deterministic in
 * its config, so a parallel sweep serializes to exactly the same
 * JSON as a sequential one.
 *
 * A seeds() axis turns each sweep point into seed replicates, and
 * runAggregated() folds the replicates into ServeAggregate records —
 * mean/stddev/min/max error bars per headline metric — ready for
 * plotting via toJson(const std::vector<ServeAggregate> &).
 */

#ifndef HYGCN_API_SERVE_SWEEP_HPP
#define HYGCN_API_SERVE_SWEEP_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

namespace hygcn::api {

/** Mean / sample stddev / min / max of one metric across the seed
 *  replicates of a sweep point (stddev 0 for a single replicate). */
struct AggregateStat
{
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * One sweep point summarized across its seed replicates: the point's
 * config (the first replicate's — the replicates differ only in
 * seed), the seeds aggregated over, and error-bar statistics for the
 * headline serving metrics. Produced by ServeSweep::runAggregated().
 */
struct ServeAggregate
{
    serve::ServeConfig config;
    std::vector<std::uint64_t> seeds;

    AggregateStat p50LatencyCycles;
    AggregateStat p99LatencyCycles;
    AggregateStat meanLatencyCycles;
    AggregateStat throughputRps;
    AggregateStat meanQueueWaitCycles;
    AggregateStat meanBatchSize;
    AggregateStat totalJoules;
    AggregateStat sloViolations;
};

/** Mean / sample stddev / min / max of @p values; throws
 *  std::invalid_argument when empty. */
AggregateStat aggregateStat(const std::vector<double> &values);

/** Fluent cartesian sweep + parallel executor over the serve layer. */
class ServeSweep
{
  public:
    ServeSweep() = default;

    /** Start from an explicit base config. */
    explicit ServeSweep(serve::ServeConfig base);

    /** Start from a registry workload preset ("serve-smoke", ...). */
    static ServeSweep workload(const std::string &name);

    /** The config every expanded run starts from. */
    serve::ServeConfig &base() { return base_; }
    const serve::ServeConfig &base() const { return base_; }

    // ---- sweep axes (unset axes keep the base's value) ---------
    /** Scheduling policies, outermost axis. */
    ServeSweep &policies(std::vector<std::string> names);

    /** Batch cost models. */
    ServeSweep &costModels(std::vector<std::string> names);

    /** Routing objectives ("cycles", "energy", "edp"). */
    ServeSweep &objectives(std::vector<std::string> names);

    /** Queue-aware lookahead routing on/off
     *  (RoutingSpec::lookahead per value). */
    ServeSweep &routingLookaheads(std::vector<bool> values);

    /** Scenario->class affinity margins in [0, 1)
     *  (RoutingSpec::affinityMargin per value; 0 disables). */
    ServeSweep &affinityMargins(std::vector<double> margins);

    /** Cluster shapes (ClusterSpec per value; an empty spec selects
     *  the base's homogeneous shorthand). */
    ServeSweep &clusters(std::vector<serve::ClusterSpec> specs);

    /** Largest batch sizes one instance serves at once. */
    ServeSweep &maxBatches(std::vector<std::uint32_t> sizes);

    /** Mean interarrival gaps in cycles. */
    ServeSweep &arrivalRates(std::vector<double> mean_interarrival_cycles);

    /** Arrival-process registry names ("poisson", "flash-crowd",
     *  ...); each keeps the base's ArrivalSpec parameters. */
    ServeSweep &arrivalProcesses(std::vector<std::string> names);

    /** Autoscaling-policy registry names ("static", "queue-depth",
     *  "slo-burn"); each keeps the base's ControlPlaneSpec knobs. */
    ServeSweep &scalingPolicies(std::vector<std::string> names);

    /** Cluster-wide power caps in watts (0 = uncapped). */
    ServeSweep &powerCapsWatts(std::vector<double> watts);

    /**
     * Functional kernel thread counts (RunSpec::threads, applied to
     * every scenario of the expanded config; 0 = auto). Inert for
     * timing-only pricing, but carried through the specs so
     * functional replays of sweep points inherit the setting.
     */
    ServeSweep &kernelThreads(std::vector<int> counts);

    /**
     * Seed replicates, innermost axis: every other sweep point runs
     * once per seed, and runAggregated() folds the replicates into
     * one ServeAggregate with error bars.
     */
    ServeSweep &seeds(std::vector<std::uint64_t> seeds);

    /**
     * Threads runAll asks the ThreadPool for (0 = hardware
     * concurrency; at most ThreadPool::kMaxThreads, never more than
     * there are configs). If the pool is busy with another job, such
     * as a concurrent sweep, the whole sweep runs inline on the
     * calling thread instead.
     */
    ServeSweep &threads(unsigned count);

    /** Number of runs expand() will produce. */
    std::size_t size() const;

    /**
     * Expand the cartesian product into concrete configs, in
     * deterministic declaration order: policies outermost, then cost
     * models, objectives, routing lookaheads, affinity margins,
     * clusters, max batch sizes, arrival rates, arrival processes,
     * scaling policies, power caps, kernel thread counts, and seed
     * replicates innermost.
     */
    std::vector<serve::ServeConfig> expand() const;

    /**
     * Execute every expanded config on the ThreadPool. Results are in
     * expansion order. The first run that throws (e.g. an unknown
     * policy failing at run) stops further runs from starting, and
     * its exception is rethrown once the runs in flight have finished.
     */
    std::vector<serve::ServeResult> runAll() const;

    /**
     * runAll(), then fold each sweep point's seed replicates
     * (consecutive in expansion order, seeds being the innermost
     * axis) into one ServeAggregate with mean/stddev/min/max error
     * bars per metric. Without a seeds() axis every point aggregates
     * its single run (stddev 0).
     */
    std::vector<ServeAggregate> runAggregated() const;

  private:
    serve::ServeConfig base_;
    std::vector<std::string> policies_;
    std::vector<std::string> costModels_;
    std::vector<std::string> objectives_;
    std::vector<bool> routingLookaheads_;
    std::vector<double> affinityMargins_;
    std::vector<serve::ClusterSpec> clusters_;
    std::vector<std::uint32_t> maxBatches_;
    std::vector<double> arrivalRates_;
    std::vector<std::string> arrivalProcesses_;
    std::vector<std::string> scalingPolicies_;
    std::vector<double> powerCapsWatts_;
    std::vector<int> kernelThreads_;
    std::vector<std::uint64_t> seeds_;
    unsigned threads_ = 0;
};

} // namespace hygcn::api

#endif // HYGCN_API_SERVE_SWEEP_HPP
