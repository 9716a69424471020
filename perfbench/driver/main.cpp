/**
 * @file
 * Measurement driver of the end-to-end benchmark. One single-threaded
 * process runs one workload through the simulator's public API and
 * prints one JSON line of raw measurements (host seconds, simulated
 * counters, correctness checks); perfbench/run.py turns them into
 * metrics. Every simulator thread count is pinned to 1 in the specs,
 * so the HYGCN_THREADS environment knob changes nothing.
 *
 *   perfbench_driver --workload paper-grid|serve-hetero|functional
 *                    --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH]
 *
 * The seed only generates the workload's inputs: the call order of
 * the paper grid, the model parameters and features of the
 * functional runs, and the serving request stream.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/session.hpp"
#include "bench/common.hpp"
#include "model/reference.hpp"
#include "serve/priced_cache.hpp"
#include "serve/scheduler.hpp"
#include "tracer.hpp"

using namespace hygcn;
using perfbench::Span;
using perfbench::Tracer;

namespace {

// ---- small helpers --------------------------------------------------

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + s + "\"";
}

/** JSON array of already-serialized items. */
std::string
array(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

/** Peak resident set in MiB (Linux VmHWM). */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

/** User + system CPU seconds of this process. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

/** Splitmix64: the workload-input generator (independent of the
 *  simulator's own Rng, so the library sees only its outputs). */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[splitmix(state) % i]);
}

struct Check
{
    std::string name;
    bool ok;
};

/** Everything one workload measured, serialized by emit(). */
struct Raw
{
    std::vector<double> setupSeconds;
    /** Per setup repetition: traced (1) or not (0). */
    std::vector<int> setupTraced;
    std::vector<double> passSeconds;
    std::vector<Check> checks;
    /** Workload-specific JSON members (already serialized). */
    std::vector<std::string> members;

    void check(const std::string &name, bool ok)
    {
        if (!ok)
            std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
        checks.push_back({name, ok});
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = bench::kSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

/**
 * Repeat a workload's set-up and keep the last state: twice, or in a
 * traced run three times as untraced, traced, untraced. The first
 * repetition runs in a cold process; the last two measure the same
 * warm work with tracing on and off, and their difference is the
 * tracing overhead.
 */
template <typename Fn>
void
repeatSetup(Raw &raw, Tracer &tracer, bool trace, Fn setup)
{
    const int reps = trace ? 3 : 2;
    for (int rep = 0; rep < reps; ++rep) {
        const bool traced = trace && rep == 1;
        Tracer quiet(false);
        Tracer &t = traced ? tracer : quiet;
        const double start = nowSeconds();
        {
            Span span(t, "setup");
            setup(t);
        }
        raw.setupSeconds.push_back(nowSeconds() - start);
        raw.setupTraced.push_back(traced ? 1 : 0);
    }
}

/**
 * Repeat the workload's timed unit while another pass still fits in
 * @p seconds (always at least one pass, whatever its length).
 */
template <typename Fn>
void
timedPasses(Raw &raw, Tracer &tracer, double seconds, Fn pass)
{
    double elapsed = 0.0;
    do {
        const double start = nowSeconds();
        {
            Span span(tracer, "timed.pass");
            pass(static_cast<int>(raw.passSeconds.size()));
        }
        raw.passSeconds.push_back(nowSeconds() - start);
        elapsed += raw.passSeconds.back();
    } while (elapsed + raw.passSeconds.back() <= seconds);
}

const Dataset &
synthesize(Tracer &t, DatasetId id)
{
    Span span(t, "DatasetCache::get",
              "\"dataset\":" + str(datasetAbbrev(id)));
    return api::DatasetCache::global().get(id);
}

std::string
caseLabel(ModelId m, DatasetId ds)
{
    return modelAbbrev(m) + "/" + datasetAbbrev(ds);
}

/** The simulated counters the benchmark reads off one report. */
std::string
reportJson(const SimReport &r)
{
    const StatGroup &s = r.stats;
    std::string out = "\"cycles\":" + num(static_cast<double>(r.cycles)) +
                      ",\"seconds\":" + num(r.seconds()) +
                      ",\"joules\":" + num(r.joules()) +
                      ",\"dram_bytes\":" +
                      num(static_cast<double>(r.dramBytes()));
    for (const char *key :
         {"agg.busy_cycles", "comb.busy_cycles", "dram.requests",
          "dram.row_hits", "dram.row_misses", "plan.windows_total",
          "cpu.agg_instructions", "cpu.comb_instructions"})
        out += ",\"" + std::string(key) + "\":" +
               num(static_cast<double>(s.get(key)));
    for (const char *key : {"cpu.agg_l2_mpki", "cpu.comb_l2_mpki",
                            "cpu.agg_l3_mpki", "cpu.comb_l3_mpki"})
        out += ",\"" + std::string(key) + "\":" + num(s.gauge(key));
    return out;
}

/** One Platform::run through a Session, single-threaded, traced. */
api::RunResult
platformRun(Tracer &t, const std::string &platform, ModelId m,
            DatasetId ds, std::uint64_t seed, bool functional)
{
    Span span(t, "Platform::run",
              "\"platform\":" + str(platform) + ",\"case\":" +
                  str(caseLabel(m, ds)) +
                  ",\"functional\":" + (functional ? "1" : "0"));
    return api::Session()
        .seed(seed)
        .kernelThreads(1)
        .threads(1)
        .functional(functional)
        .platform(platform)
        .model(m)
        .dataset(ds)
        .runOne();
}

std::string
callJson(const std::string &platform, ModelId m, DatasetId ds,
         const SimReport &r)
{
    return "{\"platform\":" + str(platform) + ",\"case\":" +
           str(caseLabel(m, ds)) + "," + reportJson(r) + "}";
}

// ---- paper-grid -----------------------------------------------------

struct GridCall
{
    std::string platform;
    ModelId model;
    DatasetId dataset;
};

/** The fig10(c)/fig11 grid: 20 cases x {hygcn, pyg-cpu-part,
 *  pyg-gpu}, GPU cells skipped where fig10 marks them OoM. */
std::vector<GridCall>
gridCalls()
{
    std::vector<GridCall> calls;
    for (ModelId m : allModels()) {
        const auto dss = m == ModelId::DFP ? bench::diffpoolDatasets()
                                           : bench::figureDatasets();
        for (DatasetId ds : dss) {
            calls.push_back({"hygcn", m, ds});
            calls.push_back({"pyg-cpu-part", m, ds});
            if (!bench::gpuWouldOomFullSize(m, ds))
                calls.push_back({"pyg-gpu", m, ds});
        }
    }
    return calls;
}

void
paperGrid(const Options &opt, Tracer &tracer, Raw &raw)
{
    auto &cache = api::DatasetCache::global();
    repeatSetup(raw, tracer, opt.trace, [&](Tracer &t) {
        cache.clear();
        for (DatasetId ds : bench::figureDatasets())
            synthesize(t, ds);
    });
    const std::size_t cached = cache.size();

    // The seed permutes the call order only: the grid's simulated
    // inputs stay the paper configuration (bench::kSeed), so every
    // case is checked against the checked-in fig10/fig11 baselines.
    std::vector<GridCall> calls = gridCalls();
    shuffle(calls, opt.seed);
    std::vector<std::string> results;
    timedPasses(raw, tracer, opt.seconds, [&](int pass) {
        for (const GridCall &c : calls) {
            const api::RunResult r = platformRun(
                tracer, c.platform, c.model, c.dataset, bench::kSeed, false);
            if (pass == 0)
                results.push_back(
                    callJson(c.platform, c.model, c.dataset, r.report));
        }
    });
    raw.check("dataset cache unchanged after setup", cache.size() == cached);

    raw.members.push_back("\"calls\":" + array(results));
}

// ---- functional ----------------------------------------------------

void
functional(const Options &opt, Tracer &tracer, Raw &raw)
{
    const std::vector<DatasetId> datasets = {DatasetId::RD, DatasetId::CL,
                                             DatasetId::PB};
    auto &cache = api::DatasetCache::global();
    repeatSetup(raw, tracer, opt.trace, [&](Tracer &t) {
        cache.clear();
        for (DatasetId ds : datasets)
            synthesize(t, ds);
    });
    const std::size_t cached = cache.size();

    struct Case
    {
        ModelId model;
        DatasetId dataset;
    };
    std::vector<Case> cases;
    for (DatasetId ds : datasets)
        for (ModelId m : {ModelId::GCN, ModelId::GIN, ModelId::GSC})
            cases.push_back({m, ds});

    // Parameters, features, and neighbor sampling all derive from
    // the workload seed.
    std::vector<std::vector<Matrix>> outputs(cases.size());
    std::vector<std::string> results;
    timedPasses(raw, tracer, opt.seconds, [&](int pass) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            api::RunResult r = platformRun(tracer, "hygcn", cases[i].model,
                                           cases[i].dataset, opt.seed, true);
            if (pass == 0) {
                results.push_back(callJson("hygcn", cases[i].model,
                                           cases[i].dataset, r.report));
                outputs[i] = std::move(r.layerOutputs);
            }
        }
    });

    // Timing-only twins price the kernels' share of a functional run.
    if (opt.trace) {
        Span span(tracer, "twins");
        for (const Case &c : cases)
            platformRun(tracer, "hygcn", c.model, c.dataset, opt.seed,
                        false);
    }

    // Byte-compare every layer output against the golden executor.
    {
        Span span(tracer, "check");
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const Dataset &data = cache.get(cases[i].dataset);
            const ModelConfig model =
                makeModel(cases[i].model, data.featureLen);
            const ModelParams params = makeParams(model, opt.seed);
            const Matrix x0 = makeFeatures(data.numVertices(),
                                           data.featureLen, opt.seed);
            ReferenceExecutor reference(data.graph, data.graphBoundaries);
            reference.setThreads(1);
            ReferenceResult golden;
            {
                Span ref(tracer, "ReferenceExecutor::run",
                         "\"case\":" +
                             str(caseLabel(cases[i].model, cases[i].dataset)));
                golden = reference.run(model, params, x0, opt.seed);
            }
            bool equal = golden.layerOutputs.size() == outputs[i].size();
            for (std::size_t l = 0; equal && l < outputs[i].size(); ++l) {
                const auto a = outputs[i][l].data();
                const auto b = golden.layerOutputs[l].data();
                equal = a.size() == b.size() &&
                        std::memcmp(a.data(), b.data(),
                                    a.size() * sizeof(float)) == 0;
            }
            raw.check("functional " +
                          caseLabel(cases[i].model, cases[i].dataset) +
                          " byte-equal to ReferenceExecutor",
                      equal);
        }
    }
    raw.check("dataset cache unchanged after setup", cache.size() == cached);

    raw.members.push_back("\"calls\":" + array(results));
}

// ---- serve-hetero --------------------------------------------------

/** Interactive tenant's p99 target, cycles. */
constexpr Cycle kInteractiveSlo = 12'000'000;
/** Analytics tenant's p99 target, cycles. */
constexpr Cycle kAnalyticsSlo = 60'000'000;
/** Nominal offered load: mean heavy-tail interarrival gap, cycles. */
constexpr double kNominalGapCycles = 600'000.0;
/** Offered-load ladder, as multiples of the nominal rate. */
constexpr double kLadder[] = {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0};
/** Requests per long-stream run and per ladder rung. */
constexpr std::uint64_t kStreamRequests = 4'000'000;
constexpr std::uint64_t kRungRequests = 400'000;
/** Requests in the warm-up run that prices every curve. */
constexpr std::uint64_t kWarmupRequests = 2'000;

serve::ServeConfig
heteroConfig(std::uint64_t seed, std::uint64_t requests, double gap)
{
    serve::ServeConfig config;
    config.cluster.classes = {{"hygcn", 3, std::nullopt, "", 0, 0},
                              {"pyg-gpu", 2, std::nullopt, "", 0, 0}};
    config.policy = "edf";
    const std::pair<DatasetId, ModelId> scenarios[] = {
        {DatasetId::CR, ModelId::GCN},
        {DatasetId::CS, ModelId::GIN},
        {DatasetId::PB, ModelId::GCN},
        {DatasetId::CL, ModelId::GSC}};
    for (const auto &[ds, m] : scenarios) {
        serve::ServeScenario s;
        s.name = caseLabel(m, ds);
        s.spec.dataset = ds;
        s.spec.model = m;
        s.spec.seed = bench::kSeed;
        s.spec.threads = 1;
        config.scenarios.push_back(s);
    }
    config.tenants = {
        {"interactive", 0.7, {4.0, 2.0, 1.0, 1.0}, kInteractiveSlo, 0.0},
        {"analytics", 0.3, {1.0, 1.0, 2.0, 4.0}, kAnalyticsSlo, 0.0}};
    config.numRequests = requests;
    config.meanInterarrivalCycles = gap;
    config.arrival.process = "heavy-tail";
    config.seed = seed;
    config.batching.maxBatch = 4;
    config.batching.costModel = "measured";
    config.stats.streaming = true;
    return config;
}

/** Serving figures of one run offered one request per @p gap cycles. */
std::string
serveStatsJson(const serve::ServeResult &r, double gap)
{
    const serve::ServeStats &s = r.stats;
    std::string out =
        "{\"offered_rps\":" + num(r.clockHz / gap) +
        ",\"requests\":" + num(static_cast<double>(s.requests)) +
        ",\"batches\":" + num(static_cast<double>(s.batches)) +
        ",\"mean_batch_size\":" + num(s.meanBatchSize) +
        ",\"throughput_rps\":" + num(s.throughputRps) +
        ",\"mean_queue_wait_cycles\":" + num(s.meanQueueWaitCycles) +
        ",\"p50_latency_cycles\":" + num(s.p50LatencyCycles) +
        ",\"p99_latency_cycles\":" + num(s.p99LatencyCycles) +
        ",\"total_joules\":" + num(s.totalJoules) +
        ",\"joules_per_request\":" + num(s.meanJoulesPerRequest) +
        ",\"priced_cache_misses\":" +
        num(static_cast<double>(s.pricedCacheMisses));
    std::uint64_t violations = 0;
    out += ",\"tenants\":{";
    for (std::size_t t = 0; t < s.tenantStats.size(); ++t) {
        const serve::TenantStats &ts = s.tenantStats[t];
        violations += ts.sloViolations;
        out += (t ? "," : "") + str(ts.name) +
               ":{\"p99_latency_cycles\":" + num(ts.p99LatencyCycles) +
               ",\"slo_violations\":" +
               num(static_cast<double>(ts.sloViolations)) + "}";
    }
    out += "},\"slo_violations\":" + num(static_cast<double>(violations));
    out += ",\"classes\":{";
    for (std::size_t c = 0; c < s.classStats.size(); ++c) {
        const serve::ClassStats &cs = s.classStats[c];
        out += (c ? "," : "") + str(cs.label) +
               ":{\"busy_cycles\":" +
               num(static_cast<double>(cs.busyCycles)) +
               ",\"joules\":" + num(cs.joules) +
               ",\"utilization\":" + num(cs.utilization) + "}";
    }
    return out + "}}";
}

void
serveHetero(const Options &opt, Tracer &tracer, Raw &raw)
{
    auto &priced = serve::PricedScenarioCache::global();
    std::uint64_t priced_runs = 0;
    repeatSetup(raw, tracer, opt.trace, [&](Tracer &t) {
        api::DatasetCache::global().clear();
        priced.clear();
        for (DatasetId ds :
             {DatasetId::CR, DatasetId::CS, DatasetId::PB, DatasetId::CL})
            synthesize(t, ds);
        Span span(t, "serve::runServe", "\"phase\":\"warmup\"");
        const serve::ServeResult warm = serve::runServe(
            heteroConfig(opt.seed, kWarmupRequests, kNominalGapCycles));
        priced_runs = warm.stats.pricedCacheMisses;
    });

    std::string stream_json;
    std::vector<std::string> rungs;
    std::uint64_t served = 0, expected = 0;
    bool ordered = true, warm_only = true;
    auto record = [&](const serve::ServeResult &r, std::uint64_t n) {
        served += r.stats.requests;
        expected += n;
        ordered = ordered &&
                  r.stats.p99LatencyCycles >= r.stats.p50LatencyCycles;
        warm_only = warm_only && r.stats.pricedCacheMisses == 0;
    };
    double loop_seconds = 0.0;
    timedPasses(raw, tracer, opt.seconds, [&](int pass) {
        const double start = nowSeconds();
        serve::ServeResult stream;
        {
            Span span(tracer, "serve::runServe", "\"phase\":\"stream\"");
            stream = serve::runServe(heteroConfig(
                opt.seed, kStreamRequests, kNominalGapCycles));
        }
        loop_seconds += nowSeconds() - start;
        record(stream, kStreamRequests);
        if (pass == 0)
            stream_json = serveStatsJson(stream, kNominalGapCycles);
        for (double mult : kLadder) {
            const double gap = kNominalGapCycles / mult;
            serve::ServeResult rung;
            {
                Span span(tracer, "serve::runServe",
                          "\"phase\":\"ladder\",\"load\":" + num(mult));
                rung = serve::runServe(
                    heteroConfig(opt.seed, kRungRequests, gap));
            }
            record(rung, kRungRequests);
            if (pass == 0)
                rungs.push_back(serveStatsJson(rung, gap));
        }
    });
    raw.check("serve: every generated request is served", served == expected);
    raw.check("serve: p99 >= p50 in every run", ordered);
    raw.check("serve: timed runs price nothing (pricedCacheMisses == 0)",
              warm_only);

    std::string member = "\"serve\":{\"priced_runs\":" +
                         num(static_cast<double>(priced_runs)) +
                         ",\"stream_requests\":" +
                         num(static_cast<double>(kStreamRequests)) +
                         ",\"loop_s\":" + num(loop_seconds) +
                         ",\"interactive_slo_cycles\":" +
                         num(static_cast<double>(kInteractiveSlo)) +
                         ",\"stream\":" + stream_json +
                         ",\"ladder\":" + array(rungs);
    raw.members.push_back(member + "}");
}

/** Fixed CPU-bound loop: a host-speed probe, reported, never used to
 *  rescale anything. */
double
hostProbeSeconds()
{
    const double start = nowSeconds();
    std::uint64_t state = 1, acc = 0;
    for (int i = 0; i < 200'000'000; ++i)
        acc += splitmix(state) >> 60;
    volatile std::uint64_t sink = acc; // keeps the loop from folding away
    (void)sink;
    return nowSeconds() - start;
}

std::string
emit(const Options &opt, const Raw &raw, double probe)
{
    auto numbers = [](const auto &values) {
        std::vector<std::string> items;
        for (double v : values)
            items.push_back(num(v));
        return array(items);
    };
    std::vector<std::string> checks;
    for (const Check &c : raw.checks)
        checks.push_back("{\"name\":" + str(c.name) +
                         ",\"ok\":" + (c.ok ? "true" : "false") + "}");
    std::string out = "{\"workload\":" + str(opt.workload) +
                      ",\"seed\":" + std::to_string(opt.seed) +
                      ",\"setup_s\":" + numbers(raw.setupSeconds) +
                      ",\"setup_traced\":" + numbers(raw.setupTraced) +
                      ",\"pass_s\":" + numbers(raw.passSeconds) +
                      ",\"peak_rss_mib\":" + num(peakRssMiB()) +
                      ",\"cpu_s\":" + num(cpuSeconds()) +
                      ",\"probe_s\":" + num(probe) +
                      ",\"checks\":" + array(checks);
    for (const std::string &m : raw.members)
        out += "," + m;
    return out + "}";
}

Options
parse(int argc, char **argv)
{
    Options opt;
    if (argc % 2 == 0)
        throw std::invalid_argument("options come in --key value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            opt.workload = value;
        else if (key == "--seed")
            opt.seed = std::stoull(value);
        else if (key == "--seconds")
            opt.seconds = std::stod(value);
        else if (key == "--trace")
            opt.trace = value == "1";
        else if (key == "--trace-out")
            opt.traceOut = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (opt.trace && opt.traceOut.empty())
        throw std::invalid_argument("--trace 1 needs --trace-out PATH");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parse(argc, argv);
        Tracer tracer(opt.trace);
        Raw raw;
        if (opt.workload == "paper-grid")
            paperGrid(opt, tracer, raw);
        else if (opt.workload == "functional")
            functional(opt, tracer, raw);
        else if (opt.workload == "serve-hetero")
            serveHetero(opt, tracer, raw);
        else
            throw std::invalid_argument("unknown workload '" +
                                        opt.workload + "'");
        const double probe = opt.trace ? hostProbeSeconds() : 0.0;
        if (opt.trace && !tracer.writeChromeJson(opt.traceOut))
            throw std::runtime_error("cannot write " + opt.traceOut);
        std::printf("%s\n", emit(opt, raw, probe).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
