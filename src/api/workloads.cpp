/**
 * @file
 * Built-in serving workload presets, registered into the Registry so
 * a serving scenario is data, not code: "serve-smoke" (small scaled
 * single-tenant mix, the golden-regression fixture), "serve-steady"
 * (full-size two-dataset mix under moderate load), "serve-bursty"
 * (two tenants with skewed mixes and tight arrivals, the tail-latency
 * stressor), and the adversarial-arrival trio "serve-diurnal",
 * "serve-flashcrowd", and "serve-heavytail" — the serve-smoke
 * cluster under non-Poisson arrival processes, cheap enough for CI.
 * Nothing here is public API beyond registerBuiltinWorkloads().
 */

#include "api/registry.hpp"

namespace hygcn::api {

namespace {

serve::ServeScenario
scenario(DatasetId dataset, ModelId model, double scale)
{
    serve::ServeScenario s;
    s.name = datasetAbbrev(dataset) + "/" + modelAbbrev(model);
    s.spec.dataset = dataset;
    s.spec.model = model;
    s.spec.datasetScale = scale;
    return s;
}

/**
 * Small and fast: scaled Cora under GCN and GIN, one default tenant,
 * 48 requests on 2 instances. Used by the checked-in serve golden,
 * so every knob here is load-bearing for byte-exact regression.
 */
serve::ServeConfig
smoke()
{
    serve::ServeConfig config;
    config.platform = "hygcn";
    config.scenarios = {scenario(DatasetId::CR, ModelId::GCN, 0.2),
                        scenario(DatasetId::CR, ModelId::GIN, 0.2)};
    // Unit runs are ~55-65 kcycles; 40 kcycle interarrivals on two
    // instances put unbatched load near 0.75, so batches really form.
    config.numRequests = 48;
    config.meanInterarrivalCycles = 40000.0;
    config.seed = 20200222;
    config.instances = 2;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 100000;
    return config;
}

/** Full-size Cora + Citeseer GCN mix under moderate open-loop load. */
serve::ServeConfig
steady()
{
    serve::ServeConfig config;
    config.platform = "hygcn";
    config.scenarios = {scenario(DatasetId::CR, ModelId::GCN, 0.0),
                        scenario(DatasetId::CS, ModelId::GCN, 0.0)};
    // Unit runs average ~660 kcycles, so 300 kcycle interarrivals on
    // four instances sit near 0.55 unbatched load.
    config.numRequests = 256;
    config.meanInterarrivalCycles = 300000.0;
    config.seed = 20200222;
    config.instances = 4;
    config.batching.maxBatch = 8;
    config.batching.timeoutCycles = 600000;
    return config;
}

/**
 * Two tenants with skewed scenario mixes and arrivals tight enough
 * to queue: an interactive tenant dominated by the small dataset and
 * an analytics tenant favoring the large one.
 */
serve::ServeConfig
bursty()
{
    serve::ServeConfig config;
    config.platform = "hygcn";
    config.scenarios = {scenario(DatasetId::CR, ModelId::GCN, 0.0),
                        scenario(DatasetId::PB, ModelId::GCN, 0.0)};
    config.tenants = {{"interactive", 0.8, {9.0, 1.0}},
                      {"analytics", 0.2, {1.0, 4.0}}};
    // The mix averages ~570 kcycles/request; 200 kcycle interarrivals
    // on four instances run hot (~0.7 unbatched load), stressing p99.
    config.numRequests = 256;
    config.meanInterarrivalCycles = 200000.0;
    config.seed = 20200222;
    config.instances = 4;
    config.batching.maxBatch = 8;
    config.batching.timeoutCycles = 300000;
    return config;
}

/**
 * Shared cluster for the adversarial-arrival presets: the scaled
 * serve-smoke scenario pair, longer stream, two SLO-carrying tenants
 * so violation accounting has something to count. Scaled datasets
 * keep the trio cheap enough to run end to end in CI.
 */
serve::ServeConfig
adversarialBase()
{
    serve::ServeConfig config;
    config.platform = "hygcn";
    config.scenarios = {scenario(DatasetId::CR, ModelId::GCN, 0.2),
                        scenario(DatasetId::CR, ModelId::GIN, 0.2)};
    config.tenants = {{"interactive", 0.75, {3.0, 1.0}, 400000, 0.0},
                      {"analytics", 0.25, {1.0, 2.0}, 0, 0.0}};
    config.numRequests = 192;
    config.meanInterarrivalCycles = 40000.0;
    config.seed = 20200222;
    config.instances = 2;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 100000;
    return config;
}

/** Sinusoidal day/night load swinging +/-70% around the mean rate. */
serve::ServeConfig
diurnal()
{
    serve::ServeConfig config = adversarialBase();
    config.arrival.process = "diurnal";
    config.arrival.diurnalAmplitude = 0.7;
    // Two full "days" across the 192-request stream.
    config.arrival.diurnalPeriodCycles = 96 * 40000.0;
    return config;
}

/** Quiet baseline, then an 8x burst ramping in and out — the
 *  queue-depth stressor the control-plane work targets. */
serve::ServeConfig
flashcrowd()
{
    serve::ServeConfig config = adversarialBase();
    config.arrival.process = "flash-crowd";
    config.arrival.burstAmplitude = 8.0;
    config.arrival.burstStartCycle = 1000000;
    config.arrival.burstDurationCycles = 2000000;
    config.arrival.burstRampCycles = 250000;
    return config;
}

/** Pareto interarrivals (alpha 1.5): long quiet stretches broken by
 *  dense clumps, the tail-latency counterpart of flash-crowd. */
serve::ServeConfig
heavytail()
{
    serve::ServeConfig config = adversarialBase();
    config.arrival.process = "heavy-tail";
    config.arrival.heavyTailDist = "pareto";
    config.arrival.paretoAlpha = 1.5;
    return config;
}

} // namespace

void
registerBuiltinWorkloads(Registry &registry)
{
    registry.workloads.add("serve-smoke", smoke);
    registry.workloads.add("serve-steady", steady);
    registry.workloads.add("serve-bursty", bursty);
    registry.workloads.add("serve-diurnal", diurnal);
    registry.workloads.add("serve-flashcrowd", flashcrowd);
    registry.workloads.add("serve-heavytail", heavytail);
}

} // namespace hygcn::api
