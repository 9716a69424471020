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

#include <optional>
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

    /**
     * Append an instance class with autoscaling bounds: the control
     * plane may scale it between @p min_count and @p max_count
     * replicas (0 pins the bound at @p count).
     */
    ServeSession &instanceClass(const std::string &name,
                                std::uint32_t count,
                                std::uint32_t min_count,
                                std::uint32_t max_count);

    /** Registry key of the scheduling policy ("fifo", "edf",
     *  "fair-share"). */
    ServeSession &policy(const std::string &name);

    // ---- scenarios ---------------------------------------------
    /** Add a scenario by registry dataset/model names, named
     *  "<dataset>/<model>". */
    ServeSession &scenario(const std::string &dataset,
                           const std::string &model);
    ServeSession &scenario(serve::ServeScenario scenario);

    /**
     * Dataset scale for every scenario: applied to the ones already
     * added and to every scenario() that follows, whichever overload
     * adds it. A session built from a config starts at the scale of
     * the config's first scenario.
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

    /** Replace the whole arrival spec: the process shaping the
     *  stream ("poisson", "diurnal", "flash-crowd", "mmpp",
     *  "heavy-tail", "trace", "correlated"), its parameters, the
     *  trace file it replays and the path it records to. */
    ServeSession &arrival(workload::ArrivalSpec spec);

    // ---- nested specs ------------------------------------------
    // One setter per spec, each replacing the whole spec, e.g.
    // batching({.maxBatch = 8, .timeoutCycles = 500000}). To edit
    // one field of a preset and keep the rest, write through
    // config().

    /** Batch formation: size cap, head timeout, cost model
     *  ("marginal", "analytic", "measured"), deadline-aware fill. */
    ServeSession &batching(serve::BatchingSpec spec);

    /** Routing: objective ("cycles", "energy", "edp"), queue-aware
     *  lookahead, scenario->class affinity margin. */
    ServeSession &routing(serve::RoutingSpec spec);

    /** Stats collection: streaming aggregation, reservoir size,
     *  progress flush period. */
    ServeSession &stats(serve::StatsSpec spec);

    /** The control plane: scaling policy ("static", "queue-depth",
     *  "slo-burn", "scheduled"), power cap, preemption. */
    ServeSession &control(serve::ControlPlaneSpec spec);

    /** The accumulated config. */
    serve::ServeConfig &config() { return config_; }
    const serve::ServeConfig &config() const { return config_; }

    /** Execute the serving simulation. */
    serve::ServeResult run() const { return serve::runServe(config_); }

  private:
    serve::ServeConfig config_;
    // Set by datasetScale()/kernelThreads(), or taken from the
    // incoming config; applied to every scenario() added.
    std::optional<double> datasetScale_;
    std::optional<int> kernelThreads_;
};

} // namespace hygcn::api

#endif // HYGCN_API_SERVE_SESSION_HPP
