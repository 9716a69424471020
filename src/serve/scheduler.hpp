/**
 * @file
 * The serving cluster: a pluggable SchedulerPolicy (serve/policy.hpp)
 * queues arrived requests and a Scheduler dispatches formed batches
 * across the cluster's accelerator instances in an event-driven
 * loop. Clusters are homogeneous replicas of one platform or a
 * heterogeneous ClusterSpec of instance classes; service times come
 * from per-(class, scenario) cost curves cycles(B) priced by the
 * configured BatchCostModel (serve/cost_model.hpp) over one
 * deterministic Platform run each — shared process-wide through the
 * PricedScenarioCache. Batches route to the instance class scoring
 * best under the configured RouteObjective ("cycles" / "energy" /
 * "edp", serve/route_objective.hpp) at the batch's actual size,
 * consulting the joules(B) energy twin each cost model prices next
 * to cycles(B).
 */

#ifndef HYGCN_SERVE_SCHEDULER_HPP
#define HYGCN_SERVE_SCHEDULER_HPP

#include <cstdint>
#include <vector>

#include "serve/policy.hpp"
#include "serve/priced_cache.hpp"
#include "serve/serve_stats.hpp"
#include "serve/workload.hpp"

namespace hygcn::serve {

/** Cost curves indexed [class][scenario][batch-1]. */
using CostCurves = std::vector<std::vector<std::vector<Cycle>>>;

/** Energy curves (joules) indexed [class][scenario][batch-1]. */
using EnergyCurves = std::vector<std::vector<std::vector<double>>>;

/** Complete, reproducible outcome of one serving simulation. */
struct ServeResult
{
    /** The config this result answers (echoed into JSON). */
    ServeConfig config;

    /** Per-request lifecycle records, indexed by request id. */
    std::vector<RequestRecord> requests;

    /** Dispatched batches, in dispatch order. */
    std::vector<BatchRecord> batches;

    /** Per-instance utilization accounting. */
    std::vector<InstanceRecord> instances;

    /**
     * Unit service cycles per scenario on the first instance class
     * (the whole cluster, when homogeneous).
     */
    std::vector<Cycle> scenarioUnitCycles;

    /**
     * Unit service cycles per [class][scenario], normalized into the
     * cluster time base (the first class's clock) so heterogeneous
     * platforms with different clocks price comparably.
     */
    std::vector<std::vector<Cycle>> unitCyclesByClass;

    /**
     * Full cost curves per [class][scenario][batch-1] in the cluster
     * time base: the cycles(B) each dispatch, routing choice, and
     * deadline-aware fill consulted. Element [c][s][0] equals
     * unitCyclesByClass[c][s].
     */
    CostCurves cyclesByBatchByClass;

    /**
     * The energy twins per [class][scenario][batch-1], in joules:
     * what energy/EDP routing scored and what the per-batch joules
     * accounting charged. Clock-independent, so never normalized.
     */
    EnergyCurves joulesByBatchByClass;

    /** Cluster clock (the first class's), for cycles -> seconds. */
    double clockHz = 1e9;

    /** Last batch completion cycle. */
    Cycle makespan = 0;

    /** Aggregate metrics (throughput, percentiles, utilization,
     *  per-tenant and per-class breakdowns). */
    ServeStats stats;
};

/**
 * Event-driven serving simulation: generates the request stream,
 * prices each (instance class, scenario) pair into a cost curve with
 * one Platform run plus the configured BatchCostModel (through the
 * PricedScenarioCache), then advances cluster time over arrivals,
 * batch timeouts, and instance completions, dispatching
 * policy-chosen batches to the cheapest free instance class.
 * Deterministic: equal configs yield equal results, including the
 * full per-request trace.
 */
class Scheduler
{
  public:
    explicit Scheduler(ServeConfig config);

    /**
     * Resolve the cluster's platforms from the Registry, price
     * scenario curves through the process-wide PricedScenarioCache,
     * and simulate.
     */
    ServeResult run() const;

    /**
     * Simulate on an explicit platform (ignoring config.platform's
     * registry key), so the scheduler is drivable with a stub.
     * Prices through the same cache code as run(), on a run-local
     * PricedScenarioCache bound to @p platform, so stub results
     * never enter the process-wide cache (and the run reports no
     * process-wide cache traffic). Homogeneous clusters only: throws
     * std::invalid_argument when the config carries an explicit
     * ClusterSpec.
     */
    ServeResult run(const api::Platform &platform) const;

  private:
    /** The cluster's instance classes (one synthetic class when
     *  homogeneous). */
    std::vector<ClusterSpec::InstanceClass> resolveClasses() const;

    /** Scenario spec as priced on @p cls. */
    api::RunSpec classSpec(const ClusterSpec::InstanceClass &cls,
                           const ServeScenario &scenario) const;

    /** Price every (class, scenario) curve through @p cache, adding
     *  its lookups to @p lookups when given, then simulate. */
    ServeResult priceAndSimulate(PricedScenarioCache &cache,
                                 PricedScenarioCache::Lookups *lookups) const;

    /** Event loop over a priced cluster. */
    ServeResult
    simulate(const std::vector<ClusterSpec::InstanceClass> &classes,
             const CostCurves &curves, const EnergyCurves &energy,
             double clock_hz) const;

    ServeConfig config_;
};

/**
 * Service cycles of a batch of @p size unit-cost-@p unit requests
 * under the legacy marginal-fraction pricing (what the "marginal"
 * cost model computes per curve point).
 */
Cycle batchServiceCycles(Cycle unit, std::size_t size,
                         double marginal_fraction);

/** Convenience: Scheduler(config).run(). */
ServeResult runServe(const ServeConfig &config);

} // namespace hygcn::serve

#endif // HYGCN_SERVE_SCHEDULER_HPP
