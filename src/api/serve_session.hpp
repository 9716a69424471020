/**
 * @file
 * Fluent entry point of the serving simulator, mirroring Session for
 * single runs: a ServeSession accumulates a ServeConfig — platform,
 * scenarios (by registry names), tenants, arrival process, batching
 * knobs, instance count — and executes it through serve::Scheduler:
 *
 *   auto result = ServeSession()
 *                     .platform("hygcn")
 *                     .datasetScale(0.2)
 *                     .scenario("cora", "gcn")
 *                     .scenario("cora", "gin")
 *                     .tenant("interactive", 0.8, {3.0, 1.0})
 *                     .tenant("analytics", 0.2)
 *                     .requests(512)
 *                     .instances(4)
 *                     .run();
 *
 * Scheduling policies select by registry name (policy("edf")),
 * heterogeneous clusters build from instance classes
 * (instanceClass("hygcn", 6).instanceClass("pyg-cpu", 2)), and
 * tenants can carry SLO targets and fair-share quotas.
 *
 * Named presets registered in the Registry ("serve-smoke", ...) are
 * runnable via ServeSession::workload(name).
 */

#ifndef HYGCN_API_SERVE_SESSION_HPP
#define HYGCN_API_SERVE_SESSION_HPP

#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

namespace hygcn::api {

/** Fluent builder + executor over the serve layer. */
class ServeSession
{
  public:
    ServeSession() = default;

    /** Start from an explicit config. */
    explicit ServeSession(serve::ServeConfig config);

    /** Start from a registry workload preset ("serve-smoke", ...). */
    static ServeSession workload(const std::string &name);

    // ---- cluster -----------------------------------------------
    /** Registry key of the platform every instance replicates
     *  (homogeneous shorthand; ignored once instanceClass() adds a
     *  heterogeneous ClusterSpec). */
    ServeSession &platform(const std::string &name);
    ServeSession &instances(std::uint32_t count);

    /**
     * Append an instance class to the heterogeneous ClusterSpec:
     * @p count replicas of registry platform @p name, optionally
     * with a per-class accelerator config. The first call switches
     * the session off the homogeneous shorthand.
     */
    ServeSession &instanceClass(const std::string &name,
                                std::uint32_t count);
    ServeSession &instanceClass(const std::string &name,
                                std::uint32_t count,
                                const HyGCNConfig &config);

    /** Registry key of the scheduling policy ("fifo", "edf",
     *  "fair-share"). */
    ServeSession &policy(const std::string &name);

    // ---- scenarios ---------------------------------------------
    /**
     * Add a scenario by registry dataset/model names, at the current
     * datasetScale(); named "<dataset>/<model>".
     */
    ServeSession &scenario(const std::string &dataset,
                           const std::string &model);
    ServeSession &scenario(serve::ServeScenario scenario);

    /**
     * Dataset scale for every scenario: applied to the ones already
     * added and to every scenario() that follows.
     */
    ServeSession &datasetScale(double scale);

    /**
     * Functional kernel threads (RunSpec::threads) for every
     * scenario: applied to the ones already added and to every
     * scenario() that follows. Inert for timing-only pricing runs;
     * carried so functional replays of served scenarios inherit it.
     */
    ServeSession &kernelThreads(int count);

    // ---- traffic -----------------------------------------------
    /** Add a tenant; empty weights select scenarios uniformly. */
    ServeSession &tenant(const std::string &name, double weight,
                         std::vector<double> scenario_weights = {});

    /** Add a tenant with an SLO target (deadline = arrival +
     *  @p slo_cycles; drives "edf" and violation accounting) and an
     *  optional fair-share quota (0 falls back to the weight). */
    ServeSession &tenant(const std::string &name, double weight,
                         std::vector<double> scenario_weights,
                         Cycle slo_cycles, double share_quota = 0.0);
    ServeSession &requests(std::uint64_t count);
    ServeSession &meanInterarrival(double cycles);
    ServeSession &seed(std::uint64_t seed);

    /** Registry key of the arrival process shaping the stream
     *  ("poisson", "diurnal", "flash-crowd", "mmpp", "heavy-tail",
     *  "trace"); parameters adjust via arrival() or config(). */
    ServeSession &arrivalProcess(const std::string &name);

    /** Replace the whole arrival spec (process + parameters). */
    ServeSession &arrival(workload::ArrivalSpec spec);

    /** Replay a recorded trace file: selects the "trace" process
     *  over @p path (workload/trace.hpp format). */
    ServeSession &replayTrace(const std::string &path);

    /** Record the generated stream to @p path as a replayable
     *  trace, whatever process generates it. */
    ServeSession &recordTrace(const std::string &path);

    /**
     * Append an instance class with autoscaling bounds: the control
     * plane may scale it between @p min_count and @p max_count
     * replicas (0 pins the bound at @p count).
     */
    ServeSession &instanceClass(const std::string &name,
                                std::uint32_t count,
                                std::uint32_t min_count,
                                std::uint32_t max_count);

    // ---- batching ----------------------------------------------
    /** Replace the whole batching spec at once; the granular setters
     *  below adjust single knobs on it. */
    ServeSession &batching(serve::BatchingSpec spec);

    ServeSession &maxBatch(std::uint32_t size);
    ServeSession &batchTimeout(Cycle cycles);
    ServeSession &batchMarginalFraction(double fraction);

    /** Registry key of the batch cost model pricing co-scheduled
     *  requests ("marginal", "analytic", "measured"). */
    ServeSession &costModel(const std::string &name);

    // ---- routing -----------------------------------------------
    /** Replace the whole routing spec at once; the granular setters
     *  below adjust single knobs on it. */
    ServeSession &routing(serve::RoutingSpec spec);

    /** Registry key of the routing objective scoring candidate
     *  instance classes ("cycles", "energy", "edp"). */
    ServeSession &routeObjective(const std::string &name);

    /** Queue-aware lookahead routing: score busy classes at their
     *  wait-until-free horizon instead of only considering free
     *  instances, holding a ready batch when a busy class still wins
     *  (RoutingSpec::lookahead). */
    ServeSession &lookaheadRouting(bool on = true);

    /** Scenario->class affinity margin in [0, 1): a batch only
     *  migrates off its scenario's last-served class when the best
     *  rival's score improves on the incumbent's by more than this
     *  fraction (RoutingSpec::affinityMargin; 0 disables). */
    ServeSession &affinityMargin(double margin);

    /** Deadline-aware EDF batch sizing: stop filling a batch where
     *  the cost curve says one more member would blow the tightest
     *  queued deadline. */
    ServeSession &deadlineAwareBatching(bool on = true);

    // ---- streaming stats ---------------------------------------
    /** Replace the whole stats spec at once; the granular setters
     *  below adjust single knobs on it. */
    ServeSession &stats(serve::StatsSpec spec);

    /** Fold each batch into the stats sink at dispatch instead of
     *  materializing per-request records, so memory stays bounded
     *  at million-request scale (StatsSpec::streaming);
     *  ServeResult.requests/.batches stay empty. */
    ServeSession &streamingStats(bool on = true);

    /** Latency samples each streaming reservoir retains; runs at or
     *  below this many requests get exact percentiles. */
    ServeSession &statsReservoir(std::uint64_t capacity);

    /** Print one running-stats line to stderr every @p n served
     *  requests during a streaming run (0 disables). */
    ServeSession &statsFlushEvery(std::uint64_t n);

    // ---- control plane -----------------------------------------
    /** Replace the whole control-plane spec at once; the granular
     *  setters below adjust single knobs on it. */
    ServeSession &control(serve::ControlPlaneSpec spec);

    /** Registry key of the autoscaling policy ("static",
     *  "queue-depth", "slo-burn"). */
    ServeSession &scalingPolicy(const std::string &name);

    /** Cluster-wide modeled power budget in watts (0 = uncapped):
     *  routing skips classes whose batch would push the summed draw
     *  over the cap, and admission defers head-of-line batches no
     *  class can take. */
    ServeSession &powerCap(double watts);

    /** Checkpoint-displace a running bulk batch when a tight-deadline
     *  arrival would otherwise miss (EDF-policy clusters). */
    ServeSession &preemption(bool on = true);

    /** The accumulated config. */
    serve::ServeConfig &config() { return config_; }
    const serve::ServeConfig &config() const { return config_; }

    /** Execute the serving simulation. */
    serve::ServeResult run() const { return serve::runServe(config_); }

  private:
    serve::ServeConfig config_;
    double datasetScale_ = 0.0;
    int kernelThreads_ = 0;
};

} // namespace hygcn::api

#endif // HYGCN_API_SERVE_SESSION_HPP
