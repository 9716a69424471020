#include "sim/json.hpp"

#include <cstdio>
#include <map>

#include "api/platform.hpp"
#include "api/serve_sweep.hpp"
#include "serve/scheduler.hpp"

namespace hygcn {

namespace {

/** Append @p text to @p out, escaped for a JSON string. */
void
appendEscaped(std::string &out, std::string_view text)
{
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
}

} // namespace

JsonWriter &
JsonWriter::token(std::string_view text)
{
    if (!out_.empty() && out_.back() != '{' && out_.back() != '[' &&
        out_.back() != ':')
        out_ += ',';
    out_ += text;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    token("\"");
    appendEscaped(out_, name);
    out_ += "\":";
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    token("\"");
    appendEscaped(out_, text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", number);
    return token(buf);
}

JsonWriter &
JsonWriter::exact(double number)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    return token(buf);
}

namespace {

/** @p v, or none (written as null) where it equals @p none. */
template <class T>
std::optional<T>
orNull(const T &v, const T &none)
{
    return v == none ? std::nullopt : std::optional<T>(v);
}

void
put(JsonWriter &w, const HyGCNConfig &c)
{
    w.beginObject()
        .field("simdCores", c.simdCores)
        .field("simdWidth", c.simdWidth)
        .field("aggMode", c.aggMode == AggMode::VertexDisperse
                              ? "disperse"
                              : "concentrated")
        .field("systolicModules", c.systolicModules)
        .field("moduleRows", c.moduleRows)
        .field("moduleCols", c.moduleCols)
        .field("inputBufBytes", c.inputBufBytes)
        .field("edgeBufBytes", c.edgeBufBytes)
        .field("weightBufBytes", c.weightBufBytes)
        .field("outputBufBytes", c.outputBufBytes)
        .field("aggBufBytes", c.aggBufBytes)
        .field("sparsityElimination", c.sparsityElimination)
        .field("interEnginePipeline", c.interEnginePipeline)
        .field("memoryCoordination", c.memoryCoordination)
        .field("pipelineMode",
               c.pipelineMode == PipelineMode::LatencyAware ? "latency"
                                                            : "energy")
        .field("clockHz", c.clockHz)
        .endObject();
}

void
put(JsonWriter &w, const SimReport &report)
{
    w.beginObject()
        .field("platform", report.platform)
        .field("cycles", report.cycles)
        .field("comb_weight_load_energy_pj", report.combWeightLoadEnergyPj)
        .field("seconds", report.seconds())
        .field("joules", report.joules())
        .field("dram_bytes", report.dramBytes());
    const auto entry = [&](std::string_view name, auto v) {
        w.field(name, v);
    };
    w.key("energy_pj").beginObject();
    report.energy.forEach(entry);
    w.endObject().key("counters").beginObject();
    report.stats.forEachCounter(entry);
    w.endObject().key("gauges").beginObject();
    report.stats.forEachGauge(entry);
    w.endObject().endObject();
}

void
put(JsonWriter &w, const api::RunSpec &spec)
{
    w.beginObject()
        .field("platform", spec.platform)
        .field("dataset", datasetAbbrev(spec.dataset))
        .field("model", modelAbbrev(spec.model))
        .field("dataset_name", orNull(spec.datasetName, std::string()))
        .field("model_name", orNull(spec.modelName, std::string()))
        .field("num_layers", spec.numLayers)
        .field("seed", spec.seed)
        .field("dataset_seed", spec.datasetSeed)
        .field("dataset_scale", spec.datasetScale)
        .field("functional", spec.functional)
        .field("with_readout", spec.withReadout)
        .field("sample_factor", spec.sampleFactor)
        .field("batch_copies", spec.batchCopies)
        .field("threads", spec.threads)
        .key("hygcn_config");
    // The full accelerator config, so specs differing only in a custom
    // base config (not a vary() axis) stay distinct; inert for pyg.
    put(w, spec.hygcn);

    // Dedupe by key (last application wins) so re-varied parameters
    // never produce duplicate JSON keys.
    std::map<std::string, double> varied;
    for (const auto &[key, value] : spec.varied)
        varied[key] = value;
    w.key("varied").beginObject();
    for (const auto &[key, value] : varied)
        w.key(key).exact(value);
    w.endObject().endObject();
}

void
put(JsonWriter &w, const api::RunResult &result)
{
    w.beginObject().key("spec");
    put(w, result.spec);
    w.key("report");
    put(w, result.report);
    w.endObject();
}

/** The selected process, then every process's parameters in one
 *  object named after it. */
void
put(JsonWriter &w, const workload::ArrivalSpec &arrival)
{
    w.beginObject()
        .field("process", arrival.process)
        .key("diurnal")
        .beginObject()
        .field("amplitude", arrival.diurnalAmplitude)
        .field("period_cycles", arrival.diurnalPeriodCycles)
        .endObject()
        .key("flash-crowd")
        .beginObject()
        .field("amplitude", arrival.burstAmplitude)
        .field("start_cycle", arrival.burstStartCycle)
        .field("duration_cycles", arrival.burstDurationCycles)
        .field("ramp_cycles", arrival.burstRampCycles)
        .field("period_cycles", arrival.burstPeriodCycles)
        .endObject()
        .key("mmpp")
        .beginObject()
        .field("rate_multipliers", arrival.mmppRateMultipliers)
        .field("mean_dwell_cycles", arrival.mmppMeanDwellCycles)
        .endObject()
        .key("heavy-tail")
        .beginObject()
        .field("dist", arrival.heavyTailDist)
        .field("alpha", arrival.paretoAlpha)
        .field("sigma", arrival.lognormalSigma)
        .endObject()
        .key("correlated")
        .beginObject()
        .field("burst_multiplier", arrival.correlatedBurstMultiplier)
        .field("mean_dwell_cycles", arrival.correlatedMeanDwellCycles)
        .field("correlation", arrival.correlation)
        .endObject()
        .key("trace")
        .beginObject()
        .field("trace_file", orNull(arrival.traceFile, std::string()))
        .endObject()
        .endObject();
}

void
put(JsonWriter &w, const serve::ControlPlaneSpec &control)
{
    w.beginObject()
        .field("scaling_policy", control.scalingPolicy)
        .field("interval_cycles", control.intervalCycles)
        .field("warmup_cycles", control.warmupCycles)
        .field("drain_cycles", control.drainCycles)
        .field("queue_depth_high", control.queueDepthHigh)
        .field("queue_depth_low", control.queueDepthLow)
        .field("slo_burn_high", control.sloBurnHigh)
        .key("schedule")
        .beginArray();
    for (const auto &entry : control.schedule)
        w.beginObject()
            .field("at_cycle", entry.atCycle)
            .field("replicas", entry.replicas)
            .endObject();
    w.endArray()
        .field("min_instances", control.minInstances)
        .field("max_instances", control.maxInstances)
        .field("power_cap_watts", orNull(control.powerCapWatts, 0.0))
        .field("preemption", control.preemption)
        .field("preemption_overhead_fraction",
               control.preemptionOverheadFraction)
        .endObject();
}

void
put(JsonWriter &w, const serve::ServeConfig &config)
{
    w.beginObject()
        .field("platform", config.platform)
        .field("policy", config.policy)
        .key("cluster")
        .beginArray();
    for (const serve::ClusterSpec::InstanceClass &cls :
         config.cluster.classes) {
        w.beginObject()
            .field("platform", cls.platform)
            .field("label", cls.label())
            .field("count", cls.count)
            .field("min_count", cls.minCount)
            .field("max_count", cls.maxCount)
            .key("hygcn_config");
        if (cls.hygcn)
            put(w, *cls.hygcn);
        else
            w.null();
        w.endObject();
    }
    w.endArray().key("scenarios").beginArray();
    for (const serve::ServeScenario &scenario : config.scenarios) {
        w.beginObject().field("name", scenario.name).key("spec");
        put(w, scenario.spec);
        w.endObject();
    }
    w.endArray().key("tenants").beginArray();
    for (const serve::TenantMix &t : config.tenants)
        w.beginObject()
            .field("name", t.name)
            .field("weight", t.weight)
            .field("scenario_weights", t.scenarioWeights)
            .field("slo_cycles", orNull(t.sloLatencyCycles, Cycle{0}))
            .field("share_quota", t.shareQuota)
            .endObject();
    // recordPath never emits: recording is an I/O side effect, not
    // part of what the run answers, so a recorded run and its replay
    // echo comparable configs.
    w.endArray()
        .field("num_requests", config.numRequests)
        .field("mean_interarrival_cycles", config.meanInterarrivalCycles)
        .field("seed", config.seed)
        .field("instances", config.instances)
        .field("max_batch", config.batching.maxBatch)
        .field("batch_timeout_cycles", config.batching.timeoutCycles)
        .field("batch_marginal_fraction", config.batching.marginalFraction)
        .field("cost_model", config.batching.costModel)
        .field("route_objective", config.routing.objective)
        .field("routing_lookahead", config.routing.lookahead)
        .field("affinity_margin", config.routing.affinityMargin)
        .field("deadline_aware_batching", config.batching.deadlineAware)
        .field("streaming_stats", config.stats.streaming)
        .field("stats_reservoir_capacity", config.stats.reservoirCapacity)
        .field("stats_flush_every_requests",
               config.stats.flushEveryRequests)
        .key("arrival");
    put(w, config.arrival);
    w.key("control");
    put(w, config.control);
    w.endObject();
}

void
put(JsonWriter &w, const serve::ServeResult &result, bool per_request)
{
    // The priced-cache lookups never emit: they count what the
    // process-wide cache held when the run began, not what the run
    // answers, so equal configs serialize equally in any process.
    const serve::ServeStats &stats = result.stats;
    w.beginObject().key("config");
    put(w, result.config);
    w.key("stats")
        .beginObject()
        .field("requests", stats.requests)
        .field("batches", stats.batches)
        .field("mean_batch_size", stats.meanBatchSize)
        .field("makespan_cycles", stats.makespanCycles)
        .field("throughput_rps", stats.throughputRps)
        .key("latency_cycles")
        .beginObject()
        .field("mean", stats.meanLatencyCycles)
        .field("p50", stats.p50LatencyCycles)
        .field("p95", stats.p95LatencyCycles)
        .field("p99", stats.p99LatencyCycles)
        .field("max", stats.maxLatencyCycles)
        .endObject()
        .field("mean_queue_wait_cycles", stats.meanQueueWaitCycles)
        .field("instance_utilization", stats.instanceUtilization)
        .field("total_joules", stats.totalJoules)
        .field("mean_joules_per_request", stats.meanJoulesPerRequest)
        .field("deadline_caps_avoided", stats.deadlineCapsAvoided)
        .field("lookahead_holds", stats.lookaheadHolds)
        .field("affinity_hits", stats.affinityHits)
        .field("affinity_migrations", stats.affinityMigrations)
        .field("power_deferred_batches", stats.powerDeferredBatches)
        .field("peak_cluster_watts", stats.peakClusterWatts)
        .field("mean_cluster_watts", stats.meanClusterWatts)
        .field("preemptions", stats.preemptions)
        .field("preempted_cycles", stats.preemptedCycles)
        .field("scale_up_events", stats.scaleUpEvents)
        .field("scale_down_events", stats.scaleDownEvents)
        .key("replica_timelines")
        .beginArray();
    for (const auto &timeline : stats.replicaTimelines) {
        w.beginArray();
        for (const auto &sample : timeline)
            w.beginObject()
                .field("cycle", sample.cycle)
                .field("replicas", sample.replicas)
                .endObject();
        w.endArray();
    }
    w.endArray().key("tenants").beginArray();
    for (const serve::TenantStats &t : stats.tenantStats)
        w.beginObject()
            .field("name", t.name)
            .field("requests", t.requests)
            .field("mean_latency_cycles", t.meanLatencyCycles)
            .field("p99_latency_cycles", t.p99LatencyCycles)
            .field("slo_violations", t.sloViolations)
            .field("served_share", t.servedShare)
            .field("joules", t.joules)
            .endObject();
    w.endArray().key("classes").beginArray();
    for (const serve::ClassStats &c : stats.classStats)
        w.beginObject()
            .field("label", c.label)
            .field("instances", c.instances)
            .field("batches", c.batches)
            .field("requests", c.requests)
            .field("busy_cycles", c.busyCycles)
            .field("utilization", c.utilization)
            .field("joules", c.joules)
            .endObject();
    w.endArray()
        .endObject()
        .field("scenario_unit_cycles", result.scenarioUnitCycles)
        .field("unit_cycles_by_class", result.unitCyclesByClass)
        .field("unit_cycles_by_batch", result.cyclesByBatchByClass)
        .field("joules_by_batch", result.joulesByBatchByClass)
        .field("clock_hz", result.clockHz)
        .field("makespan_cycles", result.makespan);

    if (per_request) {
        w.key("requests").beginArray();
        for (const serve::RequestRecord &r : result.requests)
            w.beginObject()
                .field("id", r.id)
                .field("tenant", r.tenant)
                .field("scenario", r.scenario)
                .field("arrival", r.arrival)
                .field("deadline", orNull(r.deadline, serve::kNeverCycle))
                .field("dispatch", r.dispatch)
                .field("completion", r.completion)
                .field("instance", r.instance)
                .field("batch", r.batch)
                .endObject();
        w.endArray().key("batches").beginArray();
        for (const serve::BatchRecord &b : result.batches)
            w.beginObject()
                .field("id", b.id)
                .field("scenario", b.scenario)
                .field("instance", b.instance)
                .field("dispatch", b.dispatch)
                .field("completion", b.completion)
                .field("joules", b.joules)
                .field("preempted", b.preempted)
                .field("request_ids", b.requestIds)
                .endObject();
        w.endArray();
    }
    w.endObject();
}

void
put(JsonWriter &w, const char *name, const api::AggregateStat &stat)
{
    w.key(name)
        .beginObject()
        .field("mean", stat.mean)
        .field("stddev", stat.stddev)
        .field("min", stat.min)
        .field("max", stat.max)
        .endObject();
}

/** @p item serialized by put(). */
template <class T, class... Extra>
std::string
serialize(const T &item, Extra... extra)
{
    JsonWriter w;
    put(w, item, extra...);
    return w.str();
}

} // namespace

std::string
toJson(const SimReport &report)
{
    return serialize(report);
}

std::string
toJson(const api::RunSpec &spec)
{
    return serialize(spec);
}

std::string
toJson(const api::RunResult &result)
{
    return serialize(result);
}

std::string
toJson(const std::vector<api::RunResult> &sweep)
{
    JsonWriter w;
    w.beginArray();
    for (const api::RunResult &result : sweep)
        put(w, result);
    return w.endArray().str();
}

std::string
toJson(const serve::ServeConfig &config)
{
    return serialize(config);
}

std::string
toJson(const serve::ServeResult &result, bool per_request)
{
    return serialize(result, per_request);
}

std::string
toJson(const std::vector<api::ServeAggregate> &aggregates)
{
    JsonWriter w;
    w.beginArray();
    for (const api::ServeAggregate &agg : aggregates) {
        w.beginObject().key("config");
        put(w, agg.config);
        w.field("seeds", agg.seeds).field("replicates", agg.seeds.size());
        put(w, "p50_latency_cycles", agg.p50LatencyCycles);
        put(w, "p99_latency_cycles", agg.p99LatencyCycles);
        put(w, "mean_latency_cycles", agg.meanLatencyCycles);
        put(w, "throughput_rps", agg.throughputRps);
        put(w, "mean_queue_wait_cycles", agg.meanQueueWaitCycles);
        put(w, "mean_batch_size", agg.meanBatchSize);
        put(w, "total_joules", agg.totalJoules);
        put(w, "slo_violations", agg.sloViolations);
        w.endObject();
    }
    return w.endArray().str();
}

} // namespace hygcn
