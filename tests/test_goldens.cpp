/**
 * Golden-file regression tests: byte-exact JSON of a small fixed
 * Session sweep and a fixed seeded ServeSession run, pinned against
 * checked-in fixtures under tests/goldens/. Any behavior change in
 * the hot path — timing, energy, stats, scheduling, serialization —
 * shows up as a diff here instead of sliding silently.
 *
 * A serve matrix pins every scheduler decision path the same way:
 * one line per (policy, objective, lookahead, affinity, control,
 * stats) cell with a hash of its schedule and its stats object. A
 * CPU-model matrix pins the PyG-CPU cache replay one line per
 * (geometry, traversal, model, dataset) cell.
 *
 * Regenerate after an intentional change with tests/update_goldens.sh
 * (runs this binary with HYGCN_UPDATE_GOLDENS=1).
 *
 * HYGCN_GOLDEN_RTOL=<rtol> relaxes the comparison to a tokenwise one
 * that allows numeric JSON tokens to differ within the given relative
 * tolerance while everything else stays byte-exact — useful when
 * chasing a cross-toolchain last-ulp formatting difference without
 * silencing structural drift. Unset (the default) means byte-exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/serve_session.hpp"
#include "api/session.hpp"
#include "baseline/cpu_model.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;

namespace {

/** HYGCN_GOLDEN_RTOL as a double, or 0 (byte-exact) when unset. */
double
goldenRtol()
{
    const char *env = std::getenv("HYGCN_GOLDEN_RTOL");
    if (env == nullptr || *env == '\0')
        return 0.0;
    char *end = nullptr;
    const double rtol = std::strtod(env, &end);
    EXPECT_TRUE(end != env && *end == '\0' && rtol >= 0.0)
        << "HYGCN_GOLDEN_RTOL=\"" << env
        << "\" is not a non-negative number";
    return (end != env && *end == '\0' && rtol >= 0.0) ? rtol : 0.0;
}

/** True at the first character of a JSON number token: a digit, or a
 *  minus sign followed by a digit. Positions inside strings never
 *  qualify because the caller only probes where both documents agree
 *  structurally up to numeric values. */
bool
numberStartsAt(const std::string &text, std::size_t i)
{
    if (i >= text.size())
        return false;
    if (std::isdigit(static_cast<unsigned char>(text[i])))
        return true;
    return text[i] == '-' && i + 1 < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i + 1]));
}

/**
 * Tokenwise comparison: numeric JSON tokens may differ within
 * @p rtol relative to the larger magnitude (exact equality covers
 * the both-zero case), everything else must match byte for byte.
 * Returns true when @p actual is within tolerance of @p expected.
 */
bool
jsonNumericallyEqual(const std::string &expected,
                     const std::string &actual, double rtol)
{
    std::size_t i = 0, j = 0;
    while (i < expected.size() && j < actual.size()) {
        const bool num_e = numberStartsAt(expected, i);
        const bool num_a = numberStartsAt(actual, j);
        if (num_e && num_a) {
            char *end_e = nullptr;
            char *end_a = nullptr;
            const double ve = std::strtod(expected.c_str() + i, &end_e);
            const double va = std::strtod(actual.c_str() + j, &end_a);
            const double scale =
                std::max(std::abs(ve), std::abs(va));
            if (std::abs(va - ve) > rtol * std::max(scale, 1e-300) &&
                va != ve)
                return false;
            i = static_cast<std::size_t>(end_e - expected.c_str());
            j = static_cast<std::size_t>(end_a - actual.c_str());
            continue;
        }
        if (expected[i] != actual[j])
            return false;
        ++i;
        ++j;
    }
    return i == expected.size() && j == actual.size();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(HYGCN_GOLDEN_DIR) + "/" + name;
}

bool
updating()
{
    const char *env = std::getenv("HYGCN_UPDATE_GOLDENS");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/**
 * Compare @p json byte-exactly against the checked-in golden, or
 * rewrite the golden when HYGCN_UPDATE_GOLDENS is set.
 */
void
compareOrUpdate(const std::string &name, const std::string &json)
{
    const std::string path = goldenPath(name);
    if (updating()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << json << "\n";
        ASSERT_TRUE(out.good()) << "short write to " << path;
        std::printf("updated %s (%zu bytes)\n", path.c_str(),
                    json.size() + 1);
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << "; generate it with tests/update_goldens.sh";
    std::ostringstream content;
    content << in.rdbuf();

    const double rtol = goldenRtol();
    if (rtol > 0.0) {
        EXPECT_TRUE(
            jsonNumericallyEqual(content.str(), json + "\n", rtol))
            << "golden " << name << " diverged beyond "
            << "HYGCN_GOLDEN_RTOL=" << rtol << "; if the change is "
            << "intentional, regenerate with tests/update_goldens.sh";
        return;
    }
    EXPECT_EQ(content.str(), json + "\n")
        << "golden " << name << " diverged; if the change is "
        << "intentional, regenerate with tests/update_goldens.sh";
}

/**
 * Line-wise compareOrUpdate for a golden holding one keyed entry per
 * line (`"key":{...},`): each line compares on its own, so a
 * mismatch names the entry that diverged instead of the whole file.
 */
void
compareLinesOrUpdate(const std::string &name,
                     const std::vector<std::string> &lines,
                     const std::string &exact_until)
{
    std::string json = "{\n";
    for (std::size_t i = 0; i < lines.size(); ++i)
        json += lines[i] + (i + 1 < lines.size() ? ",\n" : "\n");
    json += "}";
    if (updating()) {
        compareOrUpdate(name, json);
        return;
    }

    std::ifstream in(goldenPath(name), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << goldenPath(name)
        << "; generate it with tests/update_goldens.sh";
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);) {
        if (line == "{" || line == "}")
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        expected.push_back(line);
    }
    ASSERT_EQ(expected.size(), lines.size())
        << "golden " << name << " holds a different entry count; if "
        << "the change is intentional, regenerate with "
        << "tests/update_goldens.sh";
    // HYGCN_GOLDEN_RTOL relaxes only what follows the line's
    // @p exact_until marker; the key and everything before it (hashes
    // whose hex digits would otherwise parse as numbers) stay exact.
    const double rtol = goldenRtol();
    auto split = [&exact_until](const std::string &line) {
        const std::size_t at = line.find(exact_until);
        return at == std::string::npos ? line.size() : at;
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::size_t cut_e = split(expected[i]);
        const std::size_t cut_a = split(lines[i]);
        const bool same =
            rtol > 0.0
                ? expected[i].compare(0, cut_e, lines[i], 0, cut_a) ==
                          0 &&
                      jsonNumericallyEqual(expected[i].substr(cut_e),
                                           lines[i].substr(cut_a), rtol)
                : expected[i] == lines[i];
        EXPECT_TRUE(same) << "golden " << name << " diverged at\n  "
                          << lines[i] << "\nexpected\n  "
                          << expected[i];
    }
}

/** 64-bit FNV-1a, fed field by field in little-endian byte order. */
class Fnv1a
{
  public:
    void add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }
    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Hash of everything a serving run scheduled: batch and request
 *  records (empty when streaming) plus the instance records. */
std::string
scheduleHash(const serve::ServeResult &result)
{
    Fnv1a h;
    h.add(std::uint64_t{result.batches.size()});
    for (const serve::BatchRecord &b : result.batches) {
        h.add(b.id);
        h.add(std::uint64_t{b.scenario});
        h.add(std::uint64_t{b.instance});
        h.add(b.dispatch);
        h.add(b.completion);
        h.add(b.joules);
        h.add(std::uint64_t{b.preempted});
        h.add(std::uint64_t{b.requestIds.size()});
        for (std::uint64_t id : b.requestIds)
            h.add(id);
    }
    h.add(std::uint64_t{result.requests.size()});
    for (const serve::RequestRecord &r : result.requests) {
        h.add(r.id);
        h.add(std::uint64_t{r.tenant});
        h.add(std::uint64_t{r.scenario});
        h.add(r.arrival);
        h.add(r.deadline);
        h.add(r.dispatch);
        h.add(r.completion);
        h.add(std::uint64_t{r.instance});
        h.add(r.batch);
    }
    h.add(std::uint64_t{result.instances.size()});
    for (const serve::InstanceRecord &inst : result.instances) {
        h.add(std::uint64_t{inst.id});
        h.add(std::uint64_t{inst.classIndex});
        h.add(inst.batches);
        h.add(inst.requests);
        h.add(inst.busyCycles);
        h.add(inst.utilization);
    }
    return h.hex();
}

/** The `"stats":{...}` object of a serialized ServeResult. */
std::string
statsObject(const std::string &json)
{
    const std::string tag = "\"stats\":";
    const std::size_t start = json.find(tag);
    if (start == std::string::npos)
        throw std::runtime_error("serve JSON has no stats object");
    int depth = 0;
    for (std::size_t i = start + tag.size(); i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        else if (json[i] == '}' && --depth == 0)
            return json.substr(start + tag.size(),
                               i + 1 - start - tag.size());
    }
    throw std::runtime_error("serve JSON stats object is unterminated");
}

/** @p value at round-trip precision, so equal text means equal bits. */
std::string
exactNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Every number of a SimReport as one flat JSON object: cycles, DRAM
 *  bytes, joules, counters, gauges and energy components. */
std::string
exactReport(const SimReport &report)
{
    std::string out = "{\"cycles\":" + std::to_string(report.cycles) +
                      ",\"dram_bytes\":" + std::to_string(report.dramBytes()) +
                      ",\"joules\":" + exactNumber(report.joules());
    for (const auto &[name, v] : report.stats.counters())
        out += ",\"" + name + "\":" + std::to_string(v);
    for (const auto &[name, v] : report.stats.gauges())
        out += ",\"" + name + "\":" + exactNumber(v);
    for (const auto &[name, pj] : report.energy.components())
        out += ",\"pj." + name + "\":" + exactNumber(pj);
    return out + "}";
}

} // namespace

TEST(Goldens, NumericComparatorAcceptsWithinTolerance)
{
    // Identical documents always pass, at any tolerance.
    EXPECT_TRUE(jsonNumericallyEqual("{\"a\":1.5}", "{\"a\":1.5}", 0.0));
    // 1% drift inside a 5% budget; formatting may differ too.
    EXPECT_TRUE(jsonNumericallyEqual("{\"a\":100}", "{\"a\":101}", 0.05));
    EXPECT_TRUE(jsonNumericallyEqual("{\"a\":1e2}", "{\"a\":100.0}", 0.01));
    // Negative numbers and exponents parse as one token.
    EXPECT_TRUE(jsonNumericallyEqual("[-2.0e3,4]", "[-2.02e3,4]", 0.05));
}

TEST(Goldens, NumericComparatorRejectsBeyondTolerance)
{
    // 10% drift outside a 5% budget.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":100}", "{\"a\":110}", 0.05));
    // Zero against non-zero has no relative scale to hide behind.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":0}", "{\"a\":1e-5}", 0.05));
    // Structural drift never passes, whatever the tolerance.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":1}", "{\"b\":1}", 1.0));
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":1}", "{\"a\":1,\"b\":2}", 1.0));
    // A number against a non-number is structural, not numeric.
    EXPECT_FALSE(jsonNumericallyEqual("{\"a\":1}", "{\"a\":true}", 1.0));
}

TEST(Goldens, SessionSweepJsonIsByteStable)
{
    // Small fixed sweep: Aggregation-Engine-only runs over scaled
    // Cora, 2x2 parameter grid. Everything here is pinned — seed,
    // scale, expansion order, JSON formatting.
    const std::vector<api::RunResult> runs =
        api::Session()
            .platform("hygcn-agg")
            .dataset(DatasetId::CR)
            .datasetScale(0.2)
            .model(ModelId::GCN)
            .seed(11)
            .vary("sparsityElimination", {0.0, 1.0})
            .vary("aggBufBytes", {1.0 * (1 << 20), 4.0 * (1 << 20)})
            .threads(1)
            .runAll();
    ASSERT_EQ(runs.size(), 4u);
    compareOrUpdate("session_sweep.json", toJson(runs));
}

TEST(Goldens, ServeRunJsonIsByteStable)
{
    // The registered smoke workload, per-request trace included.
    const serve::ServeResult result =
        api::ServeSession::workload("serve-smoke").run();
    ASSERT_EQ(result.requests.size(), result.config.numRequests);
    compareOrUpdate("serve_run.json", toJson(result));
}

TEST(Goldens, AnalyticServeRunJsonIsByteStable)
{
    // The same smoke workload priced by the analytic weights-resident
    // cost model: pins the phase breakdown (combination weight-load
    // cycles), the analytic curve math, and the off-default JSON
    // fields (cost_model, unit_cycles_by_batch) byte-exactly.
    api::ServeSession session = api::ServeSession::workload("serve-smoke");
    session.config().batching.costModel = "analytic";
    const serve::ServeResult result = session.run();
    ASSERT_EQ(result.requests.size(), result.config.numRequests);
    compareOrUpdate("serve_run_analytic.json", toJson(result));
}

TEST(Goldens, ServeMatrixSchedulesAndStatsAreStable)
{
    // Every scheduler decision path over a small two-class
    // heterogeneous cluster: policy x routing objective x lookahead x
    // affinity margin x control plane x stats collection. Each cell
    // pins a hash of its full schedule and its stats object, so any
    // change to what the scheduler decides — or to how the stats
    // fold — names the cell it moved.
    // The second class is a slower, lower-power HyGCN at its own
    // clock, close enough in cost that lookahead and affinity
    // arbitrate real near-ties.
    HyGCNConfig lite;
    lite.simdCores = 16;
    lite.systolicModules = 4;
    lite.clockHz = 0.8e9;
    serve::ServeConfig base;
    base.cluster.classes = {{"hygcn", 2, std::nullopt, "", 1, 3},
                            {"hygcn", 1, lite, "hygcn-lite", 1, 2}};
    base.scenarios = {{"cora/gcn", {}}, {"citeseer/gcn", {}}};
    base.scenarios[0].spec.dataset = DatasetId::CR;
    base.scenarios[1].spec.dataset = DatasetId::CS;
    for (serve::ServeScenario &s : base.scenarios) {
        s.spec.datasetScale = 0.2;
        s.spec.threads = 1;
    }
    // A tight-SLO tenant biased to the cheap scenario beside an
    // SLO-free bulk tenant biased to the expensive one: what EDF,
    // fair share, and preemption each act on.
    base.tenants = {{"interactive", 0.6, {4.0, 1.0}, 80000, 0.0},
                    {"analytics", 0.4, {1.0, 4.0}, 0, 0.0}};
    base.numRequests = 160;
    base.meanInterarrivalCycles = 40000.0;
    base.batching.maxBatch = 4;
    base.batching.timeoutCycles = 30000;
    base.seed = 1;

    const char *const policies[] = {"fifo", "edf", "fair-share"};
    const char *const objectives[] = {"cycles", "energy", "edp"};
    const char *const controls[] = {"off", "scale", "cap", "preempt"};
    // The only combination validate() rejects: preemption with
    // streaming stats.
    auto expected_skip = [](const std::string &control, bool streaming) {
        return control == "preempt" && streaming;
    };

    std::vector<std::string> lines;
    std::vector<std::string> skipped;
    for (const char *policy : policies)
        for (const char *objective : objectives)
            for (bool lookahead : {false, true})
                for (double margin : {0.0, 0.25})
                    for (const char *control : controls)
                        for (bool streaming : {false, true}) {
                            serve::ServeConfig config = base;
                            config.policy = policy;
                            config.routing.objective = objective;
                            config.routing.lookahead = lookahead;
                            config.routing.affinityMargin = margin;
                            const std::string ctl = control;
                            if (ctl == "scale")
                                config.control.scalingPolicy =
                                    "queue-depth";
                            else if (ctl == "cap")
                                // Two hygcn replicas (~7 W each)
                                // fit; a third batch on the lite
                                // class (~3.5 W) does not.
                                config.control.powerCapWatts = 15.0;
                            else if (ctl == "preempt")
                                config.control.preemption = true;
                            config.stats.streaming = streaming;
                            const std::string cell =
                                std::string(policy) + "/" + objective +
                                (lookahead ? "/la1" : "/la0") +
                                (margin > 0.0 ? "/am25" : "/am0") +
                                "/" + ctl +
                                (streaming ? "/stream" : "/mat");
                            try {
                                config.validate();
                            } catch (const std::invalid_argument &) {
                                skipped.push_back(cell);
                                EXPECT_TRUE(
                                    expected_skip(ctl, streaming))
                                    << cell << " rejected unexpectedly";
                                continue;
                            }
                            EXPECT_FALSE(expected_skip(ctl, streaming))
                                << cell << " accepted unexpectedly";
                            const serve::ServeResult result =
                                serve::runServe(config);
                            lines.push_back(
                                "\"" + cell + "\":{\"schedule\":\"" +
                                scheduleHash(result) +
                                "\",\"stats\":" +
                                statsObject(toJson(result, false)) +
                                "}");
                        }
    EXPECT_EQ(skipped.size(), 3u * 3u * 2u * 2u);
    EXPECT_EQ(lines.size(), 3u * 3u * 2u * 2u * 4u * 2u - skipped.size());
    compareLinesOrUpdate("serve_matrix.json", lines, ",\"stats\":");
}

TEST(Goldens, CpuModelReportsAreStable)
{
    // The PyG-CPU model behind Table 2 and the Fig. 10 CPU baselines:
    // naive and interval/shard traversal x every model x the small
    // datasets, at the default Xeon geometry and at two others: a
    // 64-KB L2 over a 392-KB L3 with an odd set count (383), small
    // enough that the features overflow it, and 128-B lines. Numbers
    // are printed at round-trip precision, so the replay's cache
    // counts (MPKI, DRAM bytes, cache energy) are pinned bit for bit.
    CpuConfig odd_l3;
    odd_l3.l2 = {64ull * 1024, 8, 64};      // 128 sets
    odd_l3.l3 = {64ull * 16 * 383, 16, 64}; // 383 sets
    CpuConfig line128;
    line128.l1.lineBytes = 128;
    line128.l2.lineBytes = 128;
    line128.l3.lineBytes = 128;
    const std::pair<const char *, CpuConfig> geometries[] = {
        {"default", CpuConfig{}}, {"l3odd", odd_l3}, {"line128", line128}};

    std::vector<std::string> lines;
    for (DatasetId data : {DatasetId::IB, DatasetId::CR, DatasetId::CS}) {
        const Dataset dataset = makeDataset(data, 1, 1.0);
        for (ModelId id : allModels()) {
            const ModelConfig model = makeModel(id, dataset.featureLen);
            for (const auto &[geometry, config] : geometries)
                for (bool partitioned : {false, true}) {
                    CpuModel cpu(config);
                    const SimReport report =
                        cpu.run(dataset, model, 7, {partitioned});
                    lines.push_back(
                        "\"" + std::string(geometry) + "/" +
                        (partitioned ? "pyg-cpu-part/" : "pyg-cpu/") +
                        modelAbbrev(id) + "/" + datasetAbbrev(data) +
                        "\":" + exactReport(report));
                }
        }
    }
    EXPECT_EQ(lines.size(), 3u * 4u * 3u * 2u);
    compareLinesOrUpdate("cpu_model.json", lines, "\":");
}
