/**
 * Tests of the trace-driven workload subsystem: arrival-process
 * registry resolution and seed determinism, trace write -> replay
 * round-trips (byte-identical files, identical ServeStats), the
 * seed-replicated sweep axis and its error-bar aggregation, the
 * flash-crowd queue-depth property, and the validation/reader error
 * paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "api/serve_sweep.hpp"
#include "serve/scheduler.hpp"
#include "workload/arrival_process.hpp"
#include "workload/trace.hpp"

using namespace hygcn;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

/** A tiny generator-only config: named scenarios and tenants, no
 *  pricing needed (the generator never executes the specs). */
serve::ServeConfig
streamConfig()
{
    serve::ServeConfig config;
    config.scenarios.resize(2);
    config.scenarios[0].name = "cora/gcn";
    config.scenarios[1].name = "cora/gin";
    config.tenants = {{"interactive", 0.7, {3.0, 1.0}, 500000, 0.0},
                      {"analytics", 0.3, {}, 0, 0.0}};
    config.numRequests = 64;
    config.meanInterarrivalCycles = 40000.0;
    config.seed = 7;
    return config;
}

std::vector<serve::ServeRequest>
generate(const serve::ServeConfig &config)
{
    return serve::RequestGenerator(config).generate();
}

bool
sameStream(const std::vector<serve::ServeRequest> &a,
           const std::vector<serve::ServeRequest> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].tenant != b[i].tenant ||
            a[i].scenario != b[i].scenario ||
            a[i].arrival != b[i].arrival ||
            a[i].deadline != b[i].deadline)
            return false;
    return true;
}

const char *const kGenerativeProcesses[] = {
    "poisson", "diurnal", "flash-crowd", "mmpp", "heavy-tail"};

/** Longest queue observed at any arrival instant: requests that have
 *  arrived but not yet dispatched when request i arrives. */
std::size_t
maxQueueDepth(const std::vector<serve::RequestRecord> &requests)
{
    std::size_t depth = 0;
    for (const serve::RequestRecord &at : requests) {
        std::size_t queued = 0;
        for (const serve::RequestRecord &r : requests)
            if (r.arrival <= at.arrival && r.dispatch > at.arrival)
                ++queued;
        depth = std::max(depth, queued);
    }
    return depth;
}

} // namespace

// ---- registry ----------------------------------------------------

TEST(ArrivalRegistry, ResolvesEveryBuiltinProcess)
{
    const api::Registry &registry = api::Registry::global();
    for (const char *name :
         {"poisson", "diurnal", "flash-crowd", "mmpp", "heavy-tail",
          "trace"})
        EXPECT_TRUE(registry.arrivalProcesses.has(name)) << name;
    EXPECT_FALSE(registry.arrivalProcesses.has("no-such-process"));
    EXPECT_THROW(
        registry.arrivalProcesses.make("no-such-process", streamConfig()),
        std::out_of_range);
}

namespace {

/** Deterministic constant-gap process for the registration test. */
class FixedGapProcess : public workload::ArrivalProcess
{
  public:
    workload::Arrival next(Rng &, Cycle, std::uint64_t) override
    {
        workload::Arrival arrival;
        arrival.gap = 1000;
        return arrival;
    }
};

} // namespace

TEST(ArrivalRegistry, CustomProcessRegistersAndGenerates)
{
    api::Registry::global().arrivalProcesses.add(
        "fixed-gap-test", [](const serve::ServeConfig &) {
            return std::make_unique<FixedGapProcess>();
        });
    serve::ServeConfig config = streamConfig();
    config.arrival.process = "fixed-gap-test";
    const std::vector<serve::ServeRequest> stream = generate(config);
    ASSERT_EQ(stream.size(), config.numRequests);
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(stream[i].arrival, (i + 1) * 1000u);
}

// ---- seed determinism --------------------------------------------

TEST(ArrivalProcesses, SameSeedReproducesIdenticalStreams)
{
    for (const char *process : kGenerativeProcesses) {
        serve::ServeConfig config = streamConfig();
        config.arrival.process = process;
        EXPECT_TRUE(sameStream(generate(config), generate(config)))
            << process;
    }
}

TEST(ArrivalProcesses, DifferentSeedsDiverge)
{
    for (const char *process : kGenerativeProcesses) {
        serve::ServeConfig config = streamConfig();
        config.arrival.process = process;
        serve::ServeConfig other = config;
        other.seed = config.seed + 1;
        EXPECT_FALSE(sameStream(generate(config), generate(other)))
            << process;
    }
}

TEST(ArrivalProcesses, PoissonMatchesLegacyGeneratorExactly)
{
    // The default spec IS the legacy exponential generator; an
    // explicit "poisson" selection must not perturb a single draw.
    serve::ServeConfig config = streamConfig();
    const std::vector<serve::ServeRequest> legacy = generate(config);
    config.arrival.process = "poisson";
    EXPECT_TRUE(sameStream(legacy, generate(config)));
}

// ---- trace round-trip --------------------------------------------

TEST(Trace, WriteReplayRoundTripIsExact)
{
    const std::string recorded = tempPath("roundtrip_recorded.csv");
    const std::string rerecorded = tempPath("roundtrip_rerecorded.csv");

    serve::ServeConfig config = streamConfig();
    config.arrival.process = "heavy-tail"; // adversarial source
    config.arrival.recordPath = recorded;
    const std::vector<serve::ServeRequest> original = generate(config);

    // Replay the recording, re-recording as we go: the streams and
    // the two trace files must both be identical.
    serve::ServeConfig replay = streamConfig();
    replay.arrival.process = "trace";
    replay.arrival.traceFile = recorded;
    replay.arrival.recordPath = rerecorded;
    const std::vector<serve::ServeRequest> replayed = generate(replay);

    EXPECT_TRUE(sameStream(original, replayed));
    EXPECT_EQ(slurp(recorded), slurp(rerecorded));
    std::remove(recorded.c_str());
    std::remove(rerecorded.c_str());
}

TEST(Trace, ReplayReproducesServeStatsExactly)
{
    const std::string recorded = tempPath("served_recorded.csv");

    serve::ServeConfig config =
        api::ServeSession::workload("serve-flashcrowd").config();
    config.arrival.recordPath = recorded;
    config.numRequests = 96; // keep the priced run cheap
    const serve::ServeResult original = serve::runServe(config);

    serve::ServeConfig replay = config;
    replay.arrival = workload::ArrivalSpec{};
    replay.arrival.process = "trace";
    replay.arrival.traceFile = recorded;
    const serve::ServeResult replayed = serve::runServe(replay);

    ASSERT_EQ(original.requests.size(), replayed.requests.size());
    for (std::size_t i = 0; i < original.requests.size(); ++i) {
        EXPECT_EQ(original.requests[i].arrival,
                  replayed.requests[i].arrival);
        EXPECT_EQ(original.requests[i].tenant,
                  replayed.requests[i].tenant);
        EXPECT_EQ(original.requests[i].scenario,
                  replayed.requests[i].scenario);
        EXPECT_EQ(original.requests[i].dispatch,
                  replayed.requests[i].dispatch);
        EXPECT_EQ(original.requests[i].completion,
                  replayed.requests[i].completion);
    }
    EXPECT_EQ(original.stats.batches, replayed.stats.batches);
    EXPECT_EQ(original.stats.makespanCycles,
              replayed.stats.makespanCycles);
    EXPECT_DOUBLE_EQ(original.stats.p99LatencyCycles,
                     replayed.stats.p99LatencyCycles);
    EXPECT_DOUBLE_EQ(original.stats.totalJoules,
                     replayed.stats.totalJoules);
    std::remove(recorded.c_str());
}

// ---- trace error paths -------------------------------------------

namespace {

std::string
writeTrace(const std::string &name, const std::string &body)
{
    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
    return path;
}

} // namespace

TEST(Trace, ReaderRejectsBadHeader)
{
    const std::string path =
        writeTrace("bad_header.csv", "not a trace\n1,a,b\n");
    EXPECT_THROW(workload::TraceReader reader(path),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, ReaderRejectsMalformedLine)
{
    const std::string path = writeTrace(
        "malformed.csv",
        std::string(workload::kTraceHeader) + "\n100,onlytwo\n");
    workload::TraceReader reader(path);
    EXPECT_THROW(reader.next(), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, ReaderRejectsHandAddedIdColumn)
{
    // A hand-edited trace with an id,arrival,tenant,scenario shape:
    // ids can never be honored (replay assigns them densely in
    // record order, and the scheduler's record arena indexes by id),
    // so the reader must reject the column by name — a sparse id
    // silently dropped here used to leave default-initialized
    // records polluting latency stats.
    const std::string path = writeTrace(
        "id_column.csv", std::string(workload::kTraceHeader) +
                             "\n7,100,default,cora/gcn\n");
    workload::TraceReader reader(path);
    try {
        reader.next();
        FAIL() << "expected the id column to be rejected";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("no id column"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(Trace, ReaderStillRejectsFourTextFieldsGenerically)
{
    // Four fields that do not look like a leading id column get the
    // plain shape error, not the id-column guidance.
    const std::string path = writeTrace(
        "four_text.csv", std::string(workload::kTraceHeader) +
                             "\n100,default,cora/gcn,extra\n");
    workload::TraceReader reader(path);
    try {
        reader.next();
        FAIL() << "expected the malformed line to be rejected";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what())
                      .find("expected arrival_cycle,tenant,scenario"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(Trace, ReaderRejectsBackwardsArrivals)
{
    const std::string path = writeTrace(
        "backwards.csv", std::string(workload::kTraceHeader) +
                             "\n200,default,cora/gcn\n"
                             "100,default,cora/gcn\n");
    workload::TraceReader reader(path);
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_THROW(reader.next(), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, ReplayRejectsUnknownTenantName)
{
    const std::string path = writeTrace(
        "unknown_tenant.csv", std::string(workload::kTraceHeader) +
                                  "\n100,nobody,cora/gcn\n");
    serve::ServeConfig config = streamConfig();
    config.arrival.process = "trace";
    config.arrival.traceFile = path;
    serve::RequestGenerator generator(config);
    EXPECT_THROW(generator.next(), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Trace, ReplayThrowsWhenTraceIsExhausted)
{
    const std::string path = writeTrace(
        "short.csv", std::string(workload::kTraceHeader) +
                         "\n100,interactive,cora/gcn\n"
                         "200,analytics,cora/gin\n");
    serve::ServeConfig config = streamConfig();
    config.numRequests = 3; // one more than the trace holds
    config.arrival.process = "trace";
    config.arrival.traceFile = path;
    serve::RequestGenerator generator(config);
    EXPECT_NO_THROW(generator.next());
    EXPECT_NO_THROW(generator.next());
    EXPECT_THROW(generator.next(), std::runtime_error);
    std::remove(path.c_str());
}

// ---- spec validation ---------------------------------------------

TEST(ArrivalSpec, ValidateRejectsBadParameters)
{
    serve::ServeConfig config = streamConfig();

    config.arrival = {};
    config.arrival.process = "trace"; // no traceFile
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.arrival = {};
    config.arrival.diurnalAmplitude = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.arrival = {};
    config.arrival.burstAmplitude = 0.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.arrival = {};
    config.arrival.mmppRateMultipliers = {1.0, 0.0};
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.arrival = {};
    config.arrival.heavyTailDist = "cauchy";
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.arrival = {};
    config.arrival.paretoAlpha = 1.0; // mean would not exist
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.arrival = {};
    EXPECT_NO_THROW(config.validate());
}

// ---- flash-crowd property ----------------------------------------

TEST(FlashCrowd, BurstRaisesPeakQueueDepthOverPoisson)
{
    serve::ServeConfig base =
        api::ServeSession::workload("serve-flashcrowd").config();
    base.numRequests = 96;

    serve::ServeConfig calm = base;
    calm.arrival = workload::ArrivalSpec{}; // back to poisson
    const std::size_t calm_depth =
        maxQueueDepth(serve::runServe(calm).requests);
    const std::size_t burst_depth =
        maxQueueDepth(serve::runServe(base).requests);
    EXPECT_GT(burst_depth, calm_depth);
}

// ---- seed-replicated sweeps --------------------------------------

TEST(AggregateStat, KnownAnswers)
{
    const api::AggregateStat stat =
        api::aggregateStat({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(stat.mean, 2.5);
    EXPECT_DOUBLE_EQ(stat.stddev, std::sqrt(5.0 / 3.0));
    EXPECT_DOUBLE_EQ(stat.min, 1.0);
    EXPECT_DOUBLE_EQ(stat.max, 4.0);

    const api::AggregateStat single = api::aggregateStat({7.5});
    EXPECT_DOUBLE_EQ(single.mean, 7.5);
    EXPECT_DOUBLE_EQ(single.stddev, 0.0);

    EXPECT_THROW(api::aggregateStat({}), std::invalid_argument);
}

TEST(ServeSweep, SeedsExpandAsInnermostAxis)
{
    api::ServeSweep sweep{streamConfig()};
    sweep.policies({"fifo", "edf"}).seeds({11, 22, 33});
    EXPECT_EQ(sweep.size(), 6u);

    const std::vector<serve::ServeConfig> configs = sweep.expand();
    ASSERT_EQ(configs.size(), 6u);
    const std::uint64_t expected_seeds[] = {11, 22, 33, 11, 22, 33};
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(configs[i].seed, expected_seeds[i]) << i;
        EXPECT_EQ(configs[i].policy, i < 3 ? "fifo" : "edf") << i;
    }
}

TEST(ServeSweep, ArrivalProcessAxisExpands)
{
    api::ServeSweep sweep{streamConfig()};
    sweep.arrivalProcesses({"poisson", "heavy-tail"}).seeds({1, 2});
    const std::vector<serve::ServeConfig> configs = sweep.expand();
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(configs[0].arrival.process, "poisson");
    EXPECT_EQ(configs[1].arrival.process, "poisson");
    EXPECT_EQ(configs[2].arrival.process, "heavy-tail");
    EXPECT_EQ(configs[3].arrival.process, "heavy-tail");
    EXPECT_EQ(configs[2].seed, 1u);
    EXPECT_EQ(configs[3].seed, 2u);
}

TEST(ServeSweep, RunAggregatedMatchesRunAll)
{
    serve::ServeConfig base =
        api::ServeSession::workload("serve-smoke").config();

    api::ServeSweep sweep{base};
    sweep.policies({"fifo", "edf"}).seeds({1, 2, 3});
    const std::vector<serve::ServeResult> runs = sweep.runAll();
    const std::vector<api::ServeAggregate> aggregates =
        sweep.runAggregated();

    ASSERT_EQ(runs.size(), 6u);
    ASSERT_EQ(aggregates.size(), 2u);
    for (std::size_t point = 0; point < aggregates.size(); ++point) {
        const api::ServeAggregate &agg = aggregates[point];
        EXPECT_EQ(agg.seeds,
                  (std::vector<std::uint64_t>{1, 2, 3}));
        double p99_sum = 0.0, joules_sum = 0.0;
        double p99_min = runs[point * 3].stats.p99LatencyCycles;
        double p99_max = p99_min;
        for (std::size_t r = 0; r < 3; ++r) {
            const serve::ServeStats &stats =
                runs[point * 3 + r].stats;
            p99_sum += stats.p99LatencyCycles;
            joules_sum += stats.totalJoules;
            p99_min = std::min(p99_min, stats.p99LatencyCycles);
            p99_max = std::max(p99_max, stats.p99LatencyCycles);
        }
        EXPECT_DOUBLE_EQ(agg.p99LatencyCycles.mean, p99_sum / 3.0);
        EXPECT_DOUBLE_EQ(agg.totalJoules.mean, joules_sum / 3.0);
        EXPECT_DOUBLE_EQ(agg.p99LatencyCycles.min, p99_min);
        EXPECT_DOUBLE_EQ(agg.p99LatencyCycles.max, p99_max);
        // Different seeds really produced different runs, so the
        // error bars carry information.
        EXPECT_GT(agg.p99LatencyCycles.max,
                  agg.p99LatencyCycles.min);
    }
}
