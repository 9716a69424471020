/**
 * @file
 * Every serving-simulator figure, from one process: the serving-scale
 * companion to the paper's Figure 18 scalability study. Each section
 * holds only simulated cycles and modeled joules, so the whole stdout
 * and every JSON document are deterministic. Printed in order:
 *
 *  Serve latency: one seeded open-loop request stream (full-size Cora
 *      + Citeseer GCN) replayed on 1..8 replicated HyGCN instances,
 *      then fifo, edf and fair-share head-to-head on 4 instances.
 *      Reports throughput, utilization and p50/p95/p99 latency, and
 *      whether p99 is non-increasing in the replica count (or where
 *      it saturates). Pricing is shared through the process-wide
 *      PricedScenarioCache, so each scenario is simulated once.
 *  Flash-crowd sweep: the "serve-flashcrowd" preset over three seeds
 *      under fifo and edf, aggregated into mean/stddev error bars
 *      (ServeSweep::runAggregated()).
 *  Lookahead routing: a two-class stub cluster, a current-generation
 *      class that is fastest and most efficient beside a legacy class
 *      that is slower and hotter. Under the energy objective, greedy
 *      routing spills every batch that finds the good class busy onto
 *      the legacy one; lookahead scores the busy class at its
 *      wait-until-free horizon and holds the batch while waiting is
 *      cheaper. Greedy, lookahead and lookahead+affinity run on one
 *      Poisson stream.
 *  Power cap: the flash-crowd preset on a 4-instance EDF cluster,
 *      uncapped and under two watt budgets chosen around its
 *      concurrency steps (~21 W admits three concurrent batches,
 *      ~15 W two).
 *  Calibration: for each Table 4 dataset under GCN, the "analytic"
 *      cost model's cycles(B) and joules(B) against the "measured"
 *      model's real B-graph co-batch runs, with the relative error
 *      per batch size.
 *
 * Two contracts exit 1 when broken: each lookahead case must use no
 * more joules and have no higher p99 than greedy, and no capped run
 * may exceed its cap, by the scheduler's accounting or by the draw
 * reconstructed from the batch records.
 *
 * With --json-dir DIR the harness also writes BENCH_serve.json,
 * SWEEP_flashcrowd.json, BENCH_lookahead.json and BENCH_powercap.json
 * into DIR.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "api/serve_sweep.hpp"
#include "bench/common.hpp"
#include "serve/priced_cache.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

// ---- serve latency -------------------------------------------------

serve::ServeConfig
scalingWorkload(std::uint32_t instances)
{
    // The stream is generated from (seed, arrival process, mix)
    // only, so every cluster size replays identical traffic.
    serve::ServeConfig config =
        api::ServeSession()
            .platform("hygcn")
            .scenario("cora", "gcn")
            .scenario("citeseer", "gcn")
            .requests(512)
            .meanInterarrival(250000.0)
            .seed(kSeed)
            .batching({.maxBatch = 8, .timeoutCycles = 500000})
            .instances(instances)
            .config();
    return config;
}

/** The same stream under a named policy, with SLO'd tenants so EDF
 *  and fair share have something to act on. */
serve::ServeConfig
policyWorkload(const std::string &policy)
{
    serve::ServeConfig config = scalingWorkload(4);
    config.policy = policy;
    config.tenants = {
        serve::TenantMix{"interactive", 0.7, {3.0, 1.0}, 2000000, 0.0},
        serve::TenantMix{"analytics", 0.3, {1.0, 3.0}, 0, 1.0}};
    return config;
}

/** Prints the scaling and policy tables; returns BENCH_serve.json. */
std::string
serveLatency()
{
    banner("serve_latency",
           "request-serving scalability, 1..8 HyGCN instances "
           "(GCN on full CR+CS, 512 seeded requests)");

    std::printf("\nstream: open loop, mean interarrival 250 kcycles, "
                "max batch 8, batch timeout 500 kcycles\n");
    header("instances", {"thru rps", "p50 kcyc", "p95 kcyc",
                         "p99 kcyc", "util %", "min ut %"});

    std::vector<std::pair<std::uint32_t, serve::ServeStats>> series;
    for (std::uint32_t instances = 1; instances <= 8; instances *= 2) {
        const serve::ServeResult result =
            serve::runServe(scalingWorkload(instances));
        const serve::ServeStats &stats = result.stats;
        double util_sum = 0.0, util_min = 1.0;
        for (double u : stats.instanceUtilization) {
            util_sum += u;
            util_min = std::min(util_min, u);
        }
        row(std::to_string(instances),
            {stats.throughputRps, stats.p50LatencyCycles / 1e3,
             stats.p95LatencyCycles / 1e3, stats.p99LatencyCycles / 1e3,
             util_sum / static_cast<double>(instances) * 100.0,
             util_min * 100.0});
        series.emplace_back(instances, stats);
    }

    // Policies head-to-head on the 4-instance cluster: identical
    // traffic, different dispatch order.
    std::printf("\nscheduling policies, 4 instances, two tenants "
                "(interactive SLO 2 Mcycles / analytics best-effort)\n");
    header("policy", {"thru rps", "p99 kcyc", "int p99", "slo miss"});
    std::vector<std::pair<std::string, serve::ServeStats>> policies;
    for (const char *policy : {"fifo", "edf", "fair-share"}) {
        const serve::ServeResult result =
            serve::runServe(policyWorkload(policy));
        const serve::ServeStats &stats = result.stats;
        row(policy,
            {stats.throughputRps, stats.p99LatencyCycles / 1e3,
             stats.tenantStats.at(0).p99LatencyCycles / 1e3,
             static_cast<double>(stats.tenantStats.at(0).sloViolations)});
        policies.emplace_back(policy, stats);
    }

    // Tail-latency scaling verdict: non-increasing p99, or the
    // saturation point past which more replicas stop helping.
    std::size_t saturation = series.size();
    for (std::size_t i = 1; i < series.size(); ++i)
        if (series[i].second.p99LatencyCycles >
            series[i - 1].second.p99LatencyCycles * (1.0 + 1e-9)) {
            saturation = i;
            break;
        }
    if (saturation == series.size()) {
        std::printf("\np99 latency is monotonically non-increasing in "
                    "the instance count\n");
    } else {
        std::printf("\np99 saturates at %u instances (further replicas "
                    "leave the tail to the arrival process)\n",
                    series[saturation - 1].first);
    }
    std::printf("paper trend (Fig 18 spirit): replicas first collapse "
                "queueing delay, then saturate once arrivals dominate\n");

    JsonWriter w;
    w.beginObject().field("bench", "serve_latency");
    w.key("series").beginArray();
    for (const auto &[instances, s] : series)
        w.beginObject()
            .field("instances", instances)
            .field("throughput_rps", s.throughputRps)
            .field("p50_latency_cycles", s.p50LatencyCycles)
            .field("p95_latency_cycles", s.p95LatencyCycles)
            .field("p99_latency_cycles", s.p99LatencyCycles)
            .field("makespan_cycles", s.makespanCycles)
            .endObject();
    w.endArray().key("policies").beginArray();
    for (const auto &[policy, s] : policies) {
        const serve::TenantStats &interactive = s.tenantStats.at(0);
        w.beginObject()
            .field("policy", policy)
            .field("throughput_rps", s.throughputRps)
            .field("p99_latency_cycles", s.p99LatencyCycles)
            .field("interactive_p99_cycles", interactive.p99LatencyCycles)
            .field("interactive_slo_violations", interactive.sloViolations)
            .endObject();
    }
    return w.endArray().endObject().str();
}

// ---- flash-crowd sweep ---------------------------------------------

/** Prints the error bars; returns SWEEP_flashcrowd.json. */
std::string
flashCrowdSweep()
{
    // Three seeds, fifo vs edf: small enough for CI, adversarial
    // enough that the error bars say something about tail stability.
    const std::vector<api::ServeAggregate> aggregates =
        api::ServeSweep::workload("serve-flashcrowd")
            .policies({"fifo", "edf"})
            .seeds({1, 2, 3})
            .runAggregated();
    const std::size_t seeds =
        aggregates.empty() ? 0 : aggregates.front().seeds.size();
    std::printf("\nflash-crowd sweep: %zu points x %zu seeds\n",
                aggregates.size(), seeds);
    for (const api::ServeAggregate &agg : aggregates)
        std::printf("  %-12s p99 %.0f +/- %.0f kcyc, slo miss "
                    "%.1f +/- %.1f\n",
                    agg.config.policy.c_str(),
                    agg.p99LatencyCycles.mean / 1e3,
                    agg.p99LatencyCycles.stddev / 1e3,
                    agg.sloViolations.mean,
                    agg.sloViolations.stddev);
    return toJson(aggregates);
}

// ---- lookahead routing ---------------------------------------------

/** Deterministic stub accelerator (fixed cycles/joules per
 *  inference, linear in co-batch copies), so the routing policy is
 *  the only variable. */
class StubPlatform : public api::Platform
{
  public:
    StubPlatform(std::string name, Cycle cycles, double joules)
        : name_(std::move(name)), cycles_(cycles), joules_(joules)
    {
    }

    std::string name() const override { return name_; }

    api::RunResult run(const api::RunSpec &spec) const override
    {
        api::RunResult out;
        out.spec = spec;
        out.report.platform = name_;
        out.report.cycles = cycles_ * spec.batchCopies;
        out.report.clockHz = 1e9;
        out.report.energy.charge(
            Energy::Stub, joules_ * 1e12 *
                              static_cast<double>(spec.batchCopies));
        return out;
    }

  private:
    std::string name_;
    Cycle cycles_;
    double joules_;
};

struct RoutingCase
{
    std::string name;
    bool lookahead = false;
    double affinityMargin = 0.0;
};

serve::ServeConfig
lookaheadWorkload(const RoutingCase &routing_case)
{
    serve::ServeConfig config;
    config.cluster.classes = {{"bench-la-current", 1, {}, "current"},
                              {"bench-la-legacy", 1, {}, "legacy"}};
    config.scenarios = {{"bench-la/gcn", {}}};
    config.numRequests = 4000;
    // Sustained load heavy enough that the good class is busy at
    // most dispatch instants (so greedy keeps spilling onto the
    // legacy class), light enough that either routing serves every
    // request.
    config.meanInterarrivalCycles = 550000.0;
    config.batching.maxBatch = 8;
    // A short fill timeout: greedy dispatches under-filled batches
    // the moment a class frees, which is exactly the behavior
    // lookahead's held-batch accumulation improves on.
    config.batching.timeoutCycles = 100000;
    config.seed = kSeed;
    config.routing.objective = "energy";
    config.routing.lookahead = routing_case.lookahead;
    config.routing.affinityMargin = routing_case.affinityMargin;
    return config;
}

/** Prints the routing table; returns BENCH_lookahead.json, or nothing
 *  if a lookahead case fails to dominate greedy. */
std::optional<std::string>
serveLookahead()
{
    // The 1.6x joules ratio is the design point: the delay-damped
    // energy score holds for the good class only while its wait
    // stays under 0.6x the batch's service time there, so a deep
    // backlog still spills to the legacy class instead of queueing
    // unboundedly.
    api::Registry &registry = api::Registry::global();
    registry.platforms.add("bench-la-current", [] {
        return std::make_unique<StubPlatform>("bench-la-current",
                                              1000000, 1.0);
    });
    registry.platforms.add("bench-la-legacy", [] {
        return std::make_unique<StubPlatform>("bench-la-legacy",
                                              2500000, 1.6);
    });

    banner("serve_lookahead",
           "queue-aware lookahead routing vs greedy energy routing "
           "(current-gen vs legacy two-class stub cluster)");

    const std::vector<RoutingCase> cases = {
        {"greedy", false, 0.0},
        {"lookahead", true, 0.0},
        {"lookahead_affinity", true, 0.05},
    };

    std::printf("\nstream: 4000 requests, Poisson interarrival 550 "
                "kcycles; energy objective on current(1M cyc, 1.0 J) "
                "+ legacy(2.5M cyc, 1.6 J)\n");
    header("case", {"joules", "p99 Mcyc", "mean B", "holds",
                    "affinity", "legacy %"});

    std::vector<std::pair<RoutingCase, serve::ServeStats>> series;
    for (const RoutingCase &routing_case : cases) {
        const serve::ServeResult result =
            serve::runServe(lookaheadWorkload(routing_case));
        const serve::ServeStats &stats = result.stats;
        const double legacy_share =
            stats.requests > 0
                ? 100.0 *
                      static_cast<double>(
                          stats.classStats.at(1).requests) /
                      static_cast<double>(stats.requests)
                : 0.0;
        row(routing_case.name,
            {stats.totalJoules, stats.p99LatencyCycles / 1e6,
             stats.meanBatchSize,
             static_cast<double>(stats.lookaheadHolds),
             static_cast<double>(stats.affinityHits),
             legacy_share});
        series.emplace_back(routing_case, stats);
    }

    // The dominance contract: against greedy routing of the same
    // stream, lookahead must win on energy without losing on tail
    // latency.
    const serve::ServeStats &greedy = series[0].second;
    bool violation = false;
    for (std::size_t i = 1; i < series.size(); ++i) {
        const serve::ServeStats &s = series[i].second;
        if (s.totalJoules > greedy.totalJoules ||
            s.p99LatencyCycles > greedy.p99LatencyCycles) {
            std::fprintf(
                stderr,
                "VIOLATION: %s (%.2f J, p99 %.0f cyc) does not "
                "dominate greedy (%.2f J, p99 %.0f cyc)\n",
                series[i].first.name.c_str(), s.totalJoules,
                s.p99LatencyCycles, greedy.totalJoules,
                greedy.p99LatencyCycles);
            violation = true;
        }
    }
    if (violation)
        return std::nullopt;
    std::printf("\nlookahead dominated greedy on joules and p99 in "
                "every case\n");

    JsonWriter w;
    w.beginObject().field("bench", "serve_lookahead");
    w.key("series").beginArray();
    for (const auto &[lookahead_case, s] : series)
        w.beginObject()
            .field("case", lookahead_case.name)
            .field("total_joules", s.totalJoules)
            .field("p99_latency_cycles", s.p99LatencyCycles)
            .field("mean_batch_size", s.meanBatchSize)
            .field("lookahead_holds", s.lookaheadHolds)
            .field("affinity_hits", s.affinityHits)
            .endObject();
    return w.endArray().endObject().str();
}

// ---- power cap -----------------------------------------------------

struct CapCase
{
    std::string name;
    double capWatts = 0.0; // 0 = uncapped
};

serve::ServeConfig
powercapWorkload(double cap_watts)
{
    serve::ServeConfig config =
        api::Registry::global().workloads.make("serve-flashcrowd");
    // EDF on a wider cluster than the preset's two instances, so the
    // cap has concurrency steps to bite into (each batch draws ~6.9 W
    // here; four replicas peak near 27.7 W).
    config.policy = "edf";
    config.instances = 4;
    config.control.powerCapWatts = cap_watts;
    return config;
}

/**
 * The modeled cluster draw reconstructed from the batch records as a
 * step function (each batch draws joules * clock / service watts from
 * dispatch to completion); returns its peak. Independent of the
 * scheduler's own accounting, so the cap check cross-checks
 * peakClusterWatts rather than trusting it.
 */
double
reconstructedPeakWatts(const serve::ServeResult &result)
{
    std::map<Cycle, double> deltas;
    for (const serve::BatchRecord &batch : result.batches) {
        const Cycle service = batch.completion - batch.dispatch;
        if (service == 0)
            continue;
        const double watts = batch.joules * result.clockHz /
                             static_cast<double>(service);
        deltas[batch.dispatch] += watts;
        deltas[batch.completion] -= watts;
    }
    double current = 0.0;
    double peak = 0.0;
    for (const auto &[cycle, delta] : deltas) {
        current += delta;
        peak = std::max(peak, current);
    }
    return peak;
}

/** Prints the power-cap table; returns BENCH_powercap.json, or
 *  nothing if a run's draw exceeds its cap. */
std::optional<std::string>
servePowercap()
{
    banner("serve_powercap",
           "flash crowd under a cluster power cap (serve-flashcrowd "
           "preset, EDF, 4 HyGCN instances)");

    // "uncapped" carries a budget far above the ~27.7 W whole-cluster
    // draw: it engages the watt accounting (a true 0 turns the
    // control plane off entirely) without ever refusing a placement.
    const std::vector<CapCase> cases = {
        {"uncapped", 1000.0}, {"cap21w", 21.0}, {"cap15w", 15.0}};

    std::printf("\nstream: 192 requests, 8x burst at 1 Mcycles; cap "
                "enforced on the summed per-batch draw\n");
    header("case", {"cap W", "peak W", "mean W", "deferred",
                    "p99 kcyc", "slo miss"});

    bool violation = false;
    std::vector<std::pair<CapCase, serve::ServeStats>> series;
    for (const CapCase &cap_case : cases) {
        const serve::ServeResult result =
            serve::runServe(powercapWorkload(cap_case.capWatts));
        const serve::ServeStats &stats = result.stats;
        row(cap_case.name,
            {cap_case.capWatts, stats.peakClusterWatts,
             stats.meanClusterWatts,
             static_cast<double>(stats.powerDeferredBatches),
             stats.p99LatencyCycles / 1e3,
             static_cast<double>(
                 stats.tenantStats.at(0).sloViolations)});
        // The contract: capped runs never exceed the budget, by the
        // scheduler's accounting *and* by independent reconstruction
        // from the emitted batch records.
        if (cap_case.capWatts > 0.0) {
            const double reconstructed = reconstructedPeakWatts(result);
            const double bound = cap_case.capWatts * (1.0 + 1e-9);
            if (stats.peakClusterWatts > bound ||
                reconstructed > bound) {
                std::fprintf(stderr,
                             "VIOLATION: %s peak %.4f W "
                             "(reconstructed %.4f W) exceeds the "
                             "%.2f W cap\n",
                             cap_case.name.c_str(),
                             stats.peakClusterWatts, reconstructed,
                             cap_case.capWatts);
                violation = true;
            }
        }
        series.emplace_back(cap_case, stats);
    }

    if (violation)
        return std::nullopt;
    std::printf("\nmodeled cluster draw stayed within every cap; "
                "tighter budgets trade tail latency for watts\n");

    JsonWriter w;
    w.beginObject().field("bench", "serve_powercap");
    w.key("series").beginArray();
    for (const auto &[cap_case, s] : series)
        w.beginObject()
            .field("case", cap_case.name)
            .field("cap_watts", cap_case.capWatts)
            .field("peak_cluster_watts", s.peakClusterWatts)
            .field("mean_cluster_watts", s.meanClusterWatts)
            .field("power_deferred_batches", s.powerDeferredBatches)
            .field("p99_latency_cycles", s.p99LatencyCycles)
            .field("interactive_slo_violations",
                   s.tenantStats.at(0).sloViolations)
            .endObject();
    return w.endArray().endObject().str();
}

// ---- calibration ---------------------------------------------------

constexpr std::uint32_t kMaxBatch = 4;

/**
 * Per-dataset scale keeping the 4-copy co-batches tractable: the
 * multi-graph sets degrade below ~0.2 (components shrink to single
 * vertices), while Reddit needs a far smaller cut to stay fast. The
 * relative comparison is scale-stable because both models price the
 * same scaled scenario.
 */
double
scaleOf(DatasetId ds)
{
    switch (ds) {
      case DatasetId::RD: return 0.02;
      case DatasetId::PB: return 0.1;
      default: return 0.2;
    }
}

serve::ServeConfig
curveConfig(DatasetId ds, const std::string &cost_model)
{
    serve::ServeConfig config;
    config.platform = "hygcn";
    serve::ServeScenario scenario;
    scenario.name = datasetAbbrev(ds) + "/GCN";
    scenario.spec.dataset = ds;
    scenario.spec.model = ModelId::GCN;
    scenario.spec.datasetScale = scaleOf(ds);
    scenario.spec.seed = kSeed;
    config.scenarios = {scenario};
    config.batching.maxBatch = kMaxBatch;
    config.batching.costModel = cost_model;
    return config;
}

double
relError(double analytic, double measured)
{
    return measured != 0.0 ? (analytic - measured) / measured : 0.0;
}

void
calibration()
{
    banner("calibration",
           "analytic vs measured cost curves, GCN on Table 4 datasets");
    std::printf("\nbatch sizes 1..%u; positive error = analytic "
                "over-prices the co-batch\n",
                kMaxBatch);
    header("dataset", {"B", "an kcyc", "me kcyc", "cyc err%", "an uJ",
                       "me uJ", "J err%"});

    double worst_cycles = 0.0, worst_joules = 0.0;
    std::string worst_cycles_case, worst_joules_case;
    for (DatasetId ds : figureDatasets()) {
        const serve::ServeConfig analytic_config =
            curveConfig(ds, "analytic");
        const serve::ServeConfig measured_config =
            curveConfig(ds, "measured");
        const api::RunSpec &spec = analytic_config.scenarios[0].spec;
        const serve::PricedScenarioCache::Priced analytic =
            serve::PricedScenarioCache::global().priceCurve(
                "hygcn", spec, analytic_config);
        const serve::PricedScenarioCache::Priced measured =
            serve::PricedScenarioCache::global().priceCurve(
                "hygcn", spec, measured_config);

        for (std::uint32_t b = 1; b <= kMaxBatch; ++b) {
            const double an_cyc =
                static_cast<double>(analytic.cyclesByBatch[b - 1]);
            const double me_cyc =
                static_cast<double>(measured.cyclesByBatch[b - 1]);
            const double an_j = analytic.joulesByBatch[b - 1];
            const double me_j = measured.joulesByBatch[b - 1];
            const double cyc_err = relError(an_cyc, me_cyc);
            const double j_err = relError(an_j, me_j);
            row(b == 1 ? datasetAbbrev(ds) : "",
                {static_cast<double>(b), an_cyc / 1e3, me_cyc / 1e3,
                 cyc_err * 100.0, an_j * 1e6, me_j * 1e6,
                 j_err * 100.0});
            const std::string label =
                datasetAbbrev(ds) + "@B=" + std::to_string(b);
            if (std::fabs(cyc_err) > std::fabs(worst_cycles)) {
                worst_cycles = cyc_err;
                worst_cycles_case = label;
            }
            if (std::fabs(j_err) > std::fabs(worst_joules)) {
                worst_joules = j_err;
                worst_joules_case = label;
            }
        }
    }

    std::printf("\nmax |relative error|: cycles %+.2f%% (%s), joules "
                "%+.2f%% (%s)\n",
                worst_cycles * 100.0, worst_cycles_case.c_str(),
                worst_joules * 100.0, worst_joules_case.c_str());
    std::printf("the analytic model is exact at B=1 by construction; "
                "its batch error comes from partition-boundary effects "
                "the co-batch run sees and the closed form cannot\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_dir;
    if (argc == 3 && std::strcmp(argv[1], "--json-dir") == 0) {
        json_dir = argv[2];
    } else if (argc != 1) {
        std::fprintf(stderr, "usage: %s [--json-dir DIR]\n", argv[0]);
        return 2;
    }

    bool ok = true;
    const auto emit = [&](const char *name, const std::string &doc) {
        if (!json_dir.empty())
            ok = writeJson(json_dir + "/" + name, doc) && ok;
    };
    emit("BENCH_serve.json", serveLatency());
    emit("SWEEP_flashcrowd.json", flashCrowdSweep());
    const std::optional<std::string> lookahead = serveLookahead();
    if (!lookahead)
        return 1;
    emit("BENCH_lookahead.json", *lookahead);
    const std::optional<std::string> powercap = servePowercap();
    if (!powercap)
        return 1;
    emit("BENCH_powercap.json", *powercap);
    calibration();
    return ok ? 0 : 1;
}
