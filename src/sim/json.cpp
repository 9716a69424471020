#include "sim/json.hpp"

#include <cstdio>
#include <map>

#include "api/platform.hpp"
#include "api/serve_sweep.hpp"
#include "serve/scheduler.hpp"

namespace hygcn {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

std::string
number(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Exact double round-trip, for values that key sweep runs. */
std::string
numberExact(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The full accelerator config as a JSON object. */
std::string
hygcnConfigJson(const HyGCNConfig &c)
{
    std::string out = "{";
    out += "\"simdCores\":" + std::to_string(c.simdCores) + ",";
    out += "\"simdWidth\":" + std::to_string(c.simdWidth) + ",";
    out += std::string("\"aggMode\":\"") +
           (c.aggMode == AggMode::VertexDisperse ? "disperse"
                                                 : "concentrated") +
           "\",";
    out += "\"systolicModules\":" + std::to_string(c.systolicModules) +
           ",";
    out += "\"moduleRows\":" + std::to_string(c.moduleRows) + ",";
    out += "\"moduleCols\":" + std::to_string(c.moduleCols) + ",";
    out += "\"inputBufBytes\":" + std::to_string(c.inputBufBytes) + ",";
    out += "\"edgeBufBytes\":" + std::to_string(c.edgeBufBytes) + ",";
    out += "\"weightBufBytes\":" + std::to_string(c.weightBufBytes) + ",";
    out += "\"outputBufBytes\":" + std::to_string(c.outputBufBytes) + ",";
    out += "\"aggBufBytes\":" + std::to_string(c.aggBufBytes) + ",";
    out += std::string("\"sparsityElimination\":") +
           (c.sparsityElimination ? "true" : "false") + ",";
    out += std::string("\"interEnginePipeline\":") +
           (c.interEnginePipeline ? "true" : "false") + ",";
    out += std::string("\"memoryCoordination\":") +
           (c.memoryCoordination ? "true" : "false") + ",";
    out += std::string("\"pipelineMode\":\"") +
           (c.pipelineMode == PipelineMode::LatencyAware ? "latency"
                                                         : "energy") +
           "\",";
    out += "\"clockHz\":" + number(c.clockHz);
    out += "}";
    return out;
}

} // namespace

std::string
toJson(const SimReport &report)
{
    std::string out = "{";
    out += "\"platform\":\"" + jsonEscape(report.platform) + "\",";
    out += "\"cycles\":" + std::to_string(report.cycles) + ",";
    // Phase breakdown emits only when the platform has the phase, so
    // reports of phase-less platforms (and their goldens) are
    // byte-stable.
    if (const std::uint64_t cycles =
            report.stats.get(Counter::CombWeightLoadCycles))
        out += "\"comb_weight_load_cycles\":" + std::to_string(cycles) +
               ",";
    if (report.combWeightLoadEnergyPj != 0.0)
        out += "\"comb_weight_load_energy_pj\":" +
               number(report.combWeightLoadEnergyPj) + ",";
    out += "\"seconds\":" + number(report.seconds()) + ",";
    out += "\"joules\":" + number(report.joules()) + ",";
    out += "\"dram_bytes\":" + std::to_string(report.dramBytes()) + ",";

    out += "\"energy_pj\":{";
    bool first = true;
    for (const auto &[name, pj] : report.energy.components()) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":" + number(pj);
    }
    out += "},";

    out += "\"counters\":{";
    first = true;
    for (const auto &[name, v] : report.stats.counters()) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":" + std::to_string(v);
    }
    out += "},";

    out += "\"gauges\":{";
    first = true;
    for (const auto &[name, v] : report.stats.gauges()) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(name) + "\":" + number(v);
    }
    out += "}}";
    return out;
}

std::string
toJson(const api::RunSpec &spec)
{
    std::string out = "{";
    out += "\"platform\":\"" + jsonEscape(spec.platform) + "\",";
    out += "\"dataset\":\"" + jsonEscape(datasetAbbrev(spec.dataset)) +
           "\",";
    out += "\"model\":\"" + jsonEscape(modelAbbrev(spec.model)) + "\",";
    // Registered custom names override the built-in ids; emitted only
    // when set so id-addressed specs (and their goldens) are
    // byte-stable.
    if (!spec.datasetName.empty())
        out += "\"dataset_name\":\"" + jsonEscape(spec.datasetName) +
               "\",";
    if (!spec.modelName.empty())
        out += "\"model_name\":\"" + jsonEscape(spec.modelName) + "\",";
    out += "\"num_layers\":" + std::to_string(spec.numLayers) + ",";
    out += "\"seed\":" + std::to_string(spec.seed) + ",";
    out += "\"dataset_seed\":" + std::to_string(spec.datasetSeed) + ",";
    out += "\"dataset_scale\":" + number(spec.datasetScale) + ",";
    out += std::string("\"functional\":") +
           (spec.functional ? "true" : "false") + ",";
    out += std::string("\"with_readout\":") +
           (spec.withReadout ? "true" : "false") + ",";
    out += "\"sample_factor\":" + std::to_string(spec.sampleFactor) + ",";
    // Emitted only off-default so unbatched specs (goldens, cache
    // keys) keep their exact serialized form; != 1 (not > 1) so an
    // invalid 0 can never alias the default's serialized form.
    if (spec.batchCopies != 1)
        out += "\"batch_copies\":" + std::to_string(spec.batchCopies) +
               ",";
    // Off-default only, like batch_copies: thread count never changes
    // results (kernels are bit-exact under parallelism), so default
    // specs — and the goldens/cache keys derived from them — keep
    // their exact serialized form.
    if (spec.threads != 0)
        out += "\"threads\":" + std::to_string(spec.threads) + ",";

    // Full accelerator config, so runs differing only via a custom
    // base config (not a vary() axis) stay distinguishable. Applies
    // to the hygcn* platforms; inert for the pyg baselines.
    out += "\"hygcn_config\":" + hygcnConfigJson(spec.hygcn) + ",";

    // Dedupe by key (last application wins) so re-varied parameters
    // never produce duplicate JSON keys.
    std::map<std::string, double> varied;
    for (const auto &[key, value] : spec.varied)
        varied[key] = value;
    out += "\"varied\":{";
    bool first = true;
    for (const auto &[key, value] : varied) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(key) + "\":" + numberExact(value);
    }
    out += "}}";
    return out;
}

std::string
toJson(const api::RunResult &result)
{
    std::string out = "{";
    out += "\"spec\":" + toJson(result.spec) + ",";
    out += "\"avg_vertex_latency\":" + number(result.avgVertexLatency) +
           ",";
    out += "\"report\":" + toJson(result.report);
    out += "}";
    return out;
}

std::string
toJson(const std::vector<api::RunResult> &sweep)
{
    std::string out = "[";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (i)
            out += ",";
        out += toJson(sweep[i]);
    }
    out += "]";
    return out;
}

std::string
toJson(const serve::ServeConfig &config)
{
    std::string out = "{";
    out += "\"platform\":\"" + jsonEscape(config.platform) + "\",";

    // New-in-PR-3 fields emit only off their defaults so FIFO-policy
    // homogeneous configs — including the checked-in serve golden —
    // stay byte-identical.
    if (config.policy != "fifo")
        out += "\"policy\":\"" + jsonEscape(config.policy) + "\",";
    if (!config.cluster.empty()) {
        out += "\"cluster\":[";
        for (std::size_t i = 0; i < config.cluster.classes.size(); ++i) {
            const serve::ClusterSpec::InstanceClass &cls =
                config.cluster.classes[i];
            if (i)
                out += ",";
            out += "{\"platform\":\"" + jsonEscape(cls.platform) +
                   "\",\"label\":\"" + jsonEscape(cls.label()) +
                   "\",\"count\":" + std::to_string(cls.count);
            // Autoscaling bounds emit only when set (0 means "count",
            // and pre-control-plane goldens stay byte-identical).
            if (cls.minCount)
                out += ",\"min_count\":" + std::to_string(cls.minCount);
            if (cls.maxCount)
                out += ",\"max_count\":" + std::to_string(cls.maxCount);
            if (cls.hygcn)
                out += ",\"hygcn_config\":" + hygcnConfigJson(*cls.hygcn);
            out += "}";
        }
        out += "],";
    }

    out += "\"scenarios\":[";
    for (std::size_t i = 0; i < config.scenarios.size(); ++i) {
        if (i)
            out += ",";
        out += "{\"name\":\"" + jsonEscape(config.scenarios[i].name) +
               "\",\"spec\":" + toJson(config.scenarios[i].spec) + "}";
    }
    out += "],";

    out += "\"tenants\":[";
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const serve::TenantMix &t = config.tenants[i];
        if (i)
            out += ",";
        out += "{\"name\":\"" + jsonEscape(t.name) +
               "\",\"weight\":" + number(t.weight) +
               ",\"scenario_weights\":[";
        for (std::size_t j = 0; j < t.scenarioWeights.size(); ++j) {
            if (j)
                out += ",";
            out += number(t.scenarioWeights[j]);
        }
        out += "]";
        if (t.sloLatencyCycles != 0)
            out += ",\"slo_cycles\":" +
                   std::to_string(t.sloLatencyCycles);
        if (t.shareQuota != 0.0)
            out += ",\"share_quota\":" + number(t.shareQuota);
        out += "}";
    }
    out += "],";

    out += "\"num_requests\":" + std::to_string(config.numRequests) + ",";
    out += "\"mean_interarrival_cycles\":" +
           number(config.meanInterarrivalCycles) + ",";
    out += "\"seed\":" + std::to_string(config.seed) + ",";
    out += "\"instances\":" + std::to_string(config.instances) + ",";
    out += "\"max_batch\":" + std::to_string(config.batching.maxBatch) + ",";
    out += "\"batch_timeout_cycles\":" +
           std::to_string(config.batching.timeoutCycles) + ",";
    out += "\"batch_marginal_fraction\":" +
           number(config.batching.marginalFraction);
    // Cost-model fields emit only off their defaults so marginal
    // configs — including the checked-in serve golden and the bench
    // baseline — stay byte-identical.
    if (config.batching.costModel != "marginal")
        out += ",\"cost_model\":\"" + jsonEscape(config.batching.costModel) +
               "\"";
    // Routing fields emit only off their defaults (greedy "cycles"
    // free-class routing) so legacy configs — and every checked-in
    // golden — stay byte-identical.
    if (config.routing.objective != "cycles")
        out += ",\"route_objective\":\"" +
               jsonEscape(config.routing.objective) + "\"";
    if (config.routing.lookahead)
        out += ",\"routing_lookahead\":true";
    if (config.routing.affinityMargin > 0.0)
        out += ",\"affinity_margin\":" +
               number(config.routing.affinityMargin);
    // Off-default means *false* since the default-on flip; legacy
    // opt-out configs are the ones that need to say so.
    if (!config.batching.deadlineAware)
        out += ",\"deadline_aware_batching\":false";
    // Streaming-sink knobs emit only when streaming is on (and then
    // only off-default), so materialized configs — every golden —
    // stay byte-identical.
    if (config.stats.streaming) {
        out += ",\"streaming_stats\":true";
        if (config.stats.reservoirCapacity != 65536)
            out += ",\"stats_reservoir_capacity\":" +
                   std::to_string(config.stats.reservoirCapacity);
        if (config.stats.flushEveryRequests != 0)
            out += ",\"stats_flush_every_requests\":" +
                   std::to_string(config.stats.flushEveryRequests);
    }
    // The arrival spec emits only off the default "poisson" process
    // (goldens stay byte-identical), and then only the selected
    // process's parameters. recordPath never emits: recording is an
    // I/O side effect, not part of what the run answers, so a
    // recorded run and its replay echo comparable configs.
    if (config.arrival.process != "poisson") {
        const workload::ArrivalSpec &arrival = config.arrival;
        out += ",\"arrival\":{\"process\":\"" +
               jsonEscape(arrival.process) + "\"";
        if (arrival.process == "diurnal") {
            out += ",\"amplitude\":" + number(arrival.diurnalAmplitude);
            out += ",\"period_cycles\":" +
                   number(arrival.diurnalPeriodCycles);
        } else if (arrival.process == "flash-crowd") {
            out += ",\"amplitude\":" + number(arrival.burstAmplitude);
            out += ",\"start_cycle\":" +
                   std::to_string(arrival.burstStartCycle);
            out += ",\"duration_cycles\":" +
                   std::to_string(arrival.burstDurationCycles);
            out += ",\"ramp_cycles\":" +
                   std::to_string(arrival.burstRampCycles);
            out += ",\"period_cycles\":" +
                   std::to_string(arrival.burstPeriodCycles);
        } else if (arrival.process == "mmpp") {
            out += ",\"rate_multipliers\":[";
            for (std::size_t i = 0;
                 i < arrival.mmppRateMultipliers.size(); ++i) {
                if (i)
                    out += ",";
                out += number(arrival.mmppRateMultipliers[i]);
            }
            out += "],\"mean_dwell_cycles\":" +
                   number(arrival.mmppMeanDwellCycles);
        } else if (arrival.process == "heavy-tail") {
            out += ",\"dist\":\"" + jsonEscape(arrival.heavyTailDist) +
                   "\"";
            if (arrival.heavyTailDist == "lognormal")
                out += ",\"sigma\":" + number(arrival.lognormalSigma);
            else
                out += ",\"alpha\":" + number(arrival.paretoAlpha);
        } else if (arrival.process == "correlated") {
            out += ",\"burst_multiplier\":" +
                   number(arrival.correlatedBurstMultiplier);
            out += ",\"mean_dwell_cycles\":" +
                   number(arrival.correlatedMeanDwellCycles);
            out += ",\"correlation\":" + number(arrival.correlation);
        } else if (arrival.process == "trace") {
            out += ",\"trace_file\":\"" + jsonEscape(arrival.traceFile) +
                   "\"";
        }
        out += "}";
    }
    // The control block emits only when the control plane is engaged
    // (non-static scaling, a power cap, or preemption) — default
    // configs, and therefore every checked-in golden, skip it — and
    // then only the engaged halves' knobs.
    if (config.control.enabled()) {
        const serve::ControlPlaneSpec &control = config.control;
        out += ",\"control\":{\"scaling_policy\":\"" +
               jsonEscape(control.scalingPolicy) + "\"";
        if (control.intervalCycles != 0)
            out += ",\"interval_cycles\":" +
                   std::to_string(control.intervalCycles);
        if (control.scalingPolicy != "static") {
            if (control.warmupCycles != 0)
                out += ",\"warmup_cycles\":" +
                       std::to_string(control.warmupCycles);
            if (control.drainCycles != 0)
                out += ",\"drain_cycles\":" +
                       std::to_string(control.drainCycles);
            out += ",\"queue_depth_high\":" +
                   number(control.queueDepthHigh);
            out += ",\"queue_depth_low\":" +
                   number(control.queueDepthLow);
            out += ",\"slo_burn_high\":" + number(control.sloBurnHigh);
            if (!control.schedule.empty()) {
                out += ",\"schedule\":[";
                for (std::size_t i = 0; i < control.schedule.size();
                     ++i) {
                    if (i)
                        out += ",";
                    out += "{\"at_cycle\":" +
                           std::to_string(
                               control.schedule[i].atCycle) +
                           ",\"replicas\":" +
                           std::to_string(
                               control.schedule[i].replicas) +
                           "}";
                }
                out += "]";
            }
            if (control.minInstances != 0)
                out += ",\"min_instances\":" +
                       std::to_string(control.minInstances);
            if (control.maxInstances != 0)
                out += ",\"max_instances\":" +
                       std::to_string(control.maxInstances);
        }
        if (control.powerCapWatts > 0.0)
            out += ",\"power_cap_watts\":" +
                   number(control.powerCapWatts);
        if (control.preemption) {
            out += ",\"preemption\":true";
            out += ",\"preemption_overhead_fraction\":" +
                   number(control.preemptionOverheadFraction);
        }
        out += "}";
    }
    out += "}";
    return out;
}

std::string
toJson(const serve::ServeResult &result, bool per_request)
{
    const serve::ServeStats &stats = result.stats;
    // Energy fields emit only off the default routing objective:
    // under "cycles" no dispatch ever consulted them, and the
    // checked-in goldens must stay byte-identical.
    const bool emit_energy = result.config.routing.objective != "cycles";
    std::string out = "{";
    out += "\"config\":" + toJson(result.config) + ",";

    out += "\"stats\":{";
    out += "\"requests\":" + std::to_string(stats.requests) + ",";
    out += "\"batches\":" + std::to_string(stats.batches) + ",";
    out += "\"mean_batch_size\":" + number(stats.meanBatchSize) + ",";
    out += "\"makespan_cycles\":" + std::to_string(stats.makespanCycles) +
           ",";
    out += "\"throughput_rps\":" + number(stats.throughputRps) + ",";
    out += "\"latency_cycles\":{";
    out += "\"mean\":" + number(stats.meanLatencyCycles) + ",";
    out += "\"p50\":" + number(stats.p50LatencyCycles) + ",";
    out += "\"p95\":" + number(stats.p95LatencyCycles) + ",";
    out += "\"p99\":" + number(stats.p99LatencyCycles) + ",";
    out += "\"max\":" + number(stats.maxLatencyCycles);
    out += "},";
    out += "\"mean_queue_wait_cycles\":" +
           number(stats.meanQueueWaitCycles) + ",";
    out += "\"instance_utilization\":[";
    for (std::size_t i = 0; i < stats.instanceUtilization.size(); ++i) {
        if (i)
            out += ",";
        out += number(stats.instanceUtilization[i]);
    }
    out += "]";
    if (emit_energy) {
        out += ",\"total_joules\":" + number(stats.totalJoules);
        out += ",\"mean_joules_per_request\":" +
               number(stats.meanJoulesPerRequest);
    }
    // The flag is default-on, and the fifo goldens must not grow
    // the (always-zero) counter — so the counter emits for policies
    // that size batches (built-in: "edf"), or whenever a custom
    // policy actually reports caps.
    if (result.config.batching.deadlineAware &&
        (result.config.policy == "edf" ||
         stats.deadlineCapsAvoided != 0))
        out += ",\"deadline_caps_avoided\":" +
               std::to_string(stats.deadlineCapsAvoided);
    // Routing stats emit only when the routing spec is engaged
    // (lookahead or affinity), so default-routing results — every
    // golden — stay byte-identical.
    if (result.config.routing.enabled()) {
        out += ",\"lookahead_holds\":" +
               std::to_string(stats.lookaheadHolds);
        out += ",\"affinity_hits\":" +
               std::to_string(stats.affinityHits);
        out += ",\"affinity_migrations\":" +
               std::to_string(stats.affinityMigrations);
        out += ",\"priced_cache_hits\":" +
               std::to_string(stats.pricedCacheHits);
        out += ",\"priced_cache_misses\":" +
               std::to_string(stats.pricedCacheMisses);
    }
    // Control-plane stats emit only when the control plane is engaged
    // (matching the config's "control" block), and then only the
    // engaged halves' counters.
    if (result.config.control.enabled()) {
        const serve::ControlPlaneSpec &control = result.config.control;
        if (control.powerCapWatts > 0.0) {
            out += ",\"power_deferred_batches\":" +
                   std::to_string(stats.powerDeferredBatches);
            out += ",\"peak_cluster_watts\":" +
                   number(stats.peakClusterWatts);
            out += ",\"mean_cluster_watts\":" +
                   number(stats.meanClusterWatts);
        }
        if (control.preemption) {
            out += ",\"preemptions\":" +
                   std::to_string(stats.preemptions);
            out += ",\"preempted_cycles\":" +
                   std::to_string(stats.preemptedCycles);
        }
        if (control.scalingPolicy != "static") {
            out += ",\"scale_up_events\":" +
                   std::to_string(stats.scaleUpEvents);
            out += ",\"scale_down_events\":" +
                   std::to_string(stats.scaleDownEvents);
            out += ",\"replica_timelines\":[";
            for (std::size_t c = 0; c < stats.replicaTimelines.size();
                 ++c) {
                if (c)
                    out += ",";
                out += "[";
                const auto &timeline = stats.replicaTimelines[c];
                for (std::size_t s = 0; s < timeline.size(); ++s) {
                    if (s)
                        out += ",";
                    out += "{\"cycle\":" +
                           std::to_string(timeline[s].cycle) +
                           ",\"replicas\":" +
                           std::to_string(timeline[s].replicas) + "}";
                }
                out += "]";
            }
            out += "]";
        }
    }
    // Breakdowns emit only when the config declares the dimension
    // (explicit tenants / an explicit cluster), keeping the default
    // FIFO homogeneous golden byte-identical.
    if (!result.config.tenants.empty()) {
        out += ",\"tenants\":[";
        for (std::size_t i = 0; i < stats.tenantStats.size(); ++i) {
            const serve::TenantStats &t = stats.tenantStats[i];
            if (i)
                out += ",";
            out += "{\"name\":\"" + jsonEscape(t.name) +
                   "\",\"requests\":" + std::to_string(t.requests) +
                   ",\"mean_latency_cycles\":" +
                   number(t.meanLatencyCycles) +
                   ",\"p99_latency_cycles\":" +
                   number(t.p99LatencyCycles) +
                   ",\"slo_violations\":" +
                   std::to_string(t.sloViolations) +
                   ",\"served_share\":" + number(t.servedShare) +
                   (emit_energy
                        ? ",\"joules\":" + number(t.joules)
                        : std::string()) +
                   "}";
        }
        out += "]";
    }
    if (!result.config.cluster.empty()) {
        out += ",\"classes\":[";
        for (std::size_t i = 0; i < stats.classStats.size(); ++i) {
            const serve::ClassStats &c = stats.classStats[i];
            if (i)
                out += ",";
            out += "{\"label\":\"" + jsonEscape(c.label) +
                   "\",\"instances\":" + std::to_string(c.instances) +
                   ",\"batches\":" + std::to_string(c.batches) +
                   ",\"requests\":" + std::to_string(c.requests) +
                   ",\"busy_cycles\":" + std::to_string(c.busyCycles) +
                   ",\"utilization\":" + number(c.utilization) +
                   (emit_energy
                        ? ",\"joules\":" + number(c.joules)
                        : std::string()) +
                   "}";
        }
        out += "]";
    }
    out += "},";

    out += "\"scenario_unit_cycles\":[";
    for (std::size_t i = 0; i < result.scenarioUnitCycles.size(); ++i) {
        if (i)
            out += ",";
        out += std::to_string(result.scenarioUnitCycles[i]);
    }
    out += "],";
    if (!result.config.cluster.empty()) {
        out += "\"unit_cycles_by_class\":[";
        for (std::size_t c = 0; c < result.unitCyclesByClass.size();
             ++c) {
            if (c)
                out += ",";
            out += "[";
            for (std::size_t s = 0;
                 s < result.unitCyclesByClass[c].size(); ++s) {
                if (s)
                    out += ",";
                out += std::to_string(result.unitCyclesByClass[c][s]);
            }
            out += "]";
        }
        out += "],";
    }
    // The full cost curves emit only for non-default cost models:
    // under "marginal" they are derivable from the unit cycles and
    // the fraction, and the golden must stay byte-identical.
    if (result.config.batching.costModel != "marginal") {
        out += "\"unit_cycles_by_batch\":[";
        for (std::size_t c = 0; c < result.cyclesByBatchByClass.size();
             ++c) {
            if (c)
                out += ",";
            out += "[";
            const auto &klass = result.cyclesByBatchByClass[c];
            for (std::size_t s = 0; s < klass.size(); ++s) {
                if (s)
                    out += ",";
                out += "[";
                for (std::size_t b = 0; b < klass[s].size(); ++b) {
                    if (b)
                        out += ",";
                    out += std::to_string(klass[s][b]);
                }
                out += "]";
            }
            out += "]";
        }
        out += "],";
    }
    // The energy twins the routing objective scored, per
    // [class][scenario][batch-1], in joules.
    if (emit_energy) {
        out += "\"joules_by_batch\":[";
        for (std::size_t c = 0; c < result.joulesByBatchByClass.size();
             ++c) {
            if (c)
                out += ",";
            out += "[";
            const auto &klass = result.joulesByBatchByClass[c];
            for (std::size_t s = 0; s < klass.size(); ++s) {
                if (s)
                    out += ",";
                out += "[";
                for (std::size_t b = 0; b < klass[s].size(); ++b) {
                    if (b)
                        out += ",";
                    out += number(klass[s][b]);
                }
                out += "]";
            }
            out += "]";
        }
        out += "],";
    }
    out += "\"clock_hz\":" + number(result.clockHz) + ",";
    out += "\"makespan_cycles\":" + std::to_string(result.makespan);

    if (per_request) {
        out += ",\"requests\":[";
        for (std::size_t i = 0; i < result.requests.size(); ++i) {
            const serve::RequestRecord &r = result.requests[i];
            if (i)
                out += ",";
            out += "{\"id\":" + std::to_string(r.id) +
                   ",\"tenant\":" + std::to_string(r.tenant) +
                   ",\"scenario\":" + std::to_string(r.scenario) +
                   ",\"arrival\":" + std::to_string(r.arrival) +
                   (r.deadline != serve::kNeverCycle
                        ? ",\"deadline\":" + std::to_string(r.deadline)
                        : std::string()) +
                   ",\"dispatch\":" + std::to_string(r.dispatch) +
                   ",\"completion\":" + std::to_string(r.completion) +
                   ",\"instance\":" + std::to_string(r.instance) +
                   ",\"batch\":" + std::to_string(r.batch) + "}";
        }
        out += "],\"batches\":[";
        for (std::size_t i = 0; i < result.batches.size(); ++i) {
            const serve::BatchRecord &b = result.batches[i];
            if (i)
                out += ",";
            out += "{\"id\":" + std::to_string(b.id) +
                   ",\"scenario\":" + std::to_string(b.scenario) +
                   ",\"instance\":" + std::to_string(b.instance) +
                   ",\"dispatch\":" + std::to_string(b.dispatch) +
                   ",\"completion\":" + std::to_string(b.completion) +
                   (emit_energy
                        ? ",\"joules\":" + number(b.joules)
                        : std::string()) +
                   (b.preempted ? ",\"preempted\":true"
                                : std::string()) +
                   ",\"request_ids\":[";
            for (std::size_t j = 0; j < b.requestIds.size(); ++j) {
                if (j)
                    out += ",";
                out += std::to_string(b.requestIds[j]);
            }
            out += "]}";
        }
        out += "]";
    }
    out += "}";
    return out;
}

namespace {

std::string
aggregateStatJson(const char *name, const api::AggregateStat &stat)
{
    std::string out = "\"";
    out += name;
    out += "\":{\"mean\":" + number(stat.mean) +
           ",\"stddev\":" + number(stat.stddev) +
           ",\"min\":" + number(stat.min) +
           ",\"max\":" + number(stat.max) + "}";
    return out;
}

} // namespace

std::string
toJson(const std::vector<api::ServeAggregate> &aggregates)
{
    std::string out = "[";
    for (std::size_t i = 0; i < aggregates.size(); ++i) {
        const api::ServeAggregate &agg = aggregates[i];
        if (i)
            out += ",";
        out += "{\"config\":" + toJson(agg.config) + ",";
        out += "\"seeds\":[";
        for (std::size_t s = 0; s < agg.seeds.size(); ++s) {
            if (s)
                out += ",";
            out += std::to_string(agg.seeds[s]);
        }
        out += "],\"replicates\":" + std::to_string(agg.seeds.size()) +
               ",";
        out += aggregateStatJson("p50_latency_cycles",
                                 agg.p50LatencyCycles) +
               ",";
        out += aggregateStatJson("p99_latency_cycles",
                                 agg.p99LatencyCycles) +
               ",";
        out += aggregateStatJson("mean_latency_cycles",
                                 agg.meanLatencyCycles) +
               ",";
        out += aggregateStatJson("throughput_rps", agg.throughputRps) +
               ",";
        out += aggregateStatJson("mean_queue_wait_cycles",
                                 agg.meanQueueWaitCycles) +
               ",";
        out += aggregateStatJson("mean_batch_size", agg.meanBatchSize) +
               ",";
        out += aggregateStatJson("total_joules", agg.totalJoules) + ",";
        out += aggregateStatJson("slo_violations", agg.sloViolations);
        out += "}";
    }
    out += "]";
    return out;
}

} // namespace hygcn
