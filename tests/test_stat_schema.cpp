/**
 * The counter, gauge and energy-component table: names are unique,
 * every key a built-in platform emits is a table name (or an HBM
 * channel's "dram.chNN.bytes"), README's glossary lists every row,
 * its "Emitted by" column names exactly the platforms whose runs
 * emit the row, and reading a name outside the table throws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "sim/stats.hpp"

using namespace hygcn;

namespace {

/** A "dram.chNN.bytes" channel counter's name. */
bool
isChannelName(std::string_view name)
{
    static const std::regex channel(R"(dram\.ch[0-9]{2,}\.bytes)");
    return std::regex_match(name.begin(), name.end(), channel);
}

/** A table row's name, or one of the "dram.chNN.bytes" channels. */
bool
isTableName(std::string_view name)
{
    return std::ranges::find(kStatNames, name) != std::end(kStatNames) ||
           isChannelName(name);
}

/** Expect every key of @p report to be a table name that reads back. */
void
expectTableKeys(const SimReport &report, const std::string &where)
{
    int counters = 0, components = 0;
    report.stats.forEachCounter([&](std::string_view name, std::uint64_t v) {
        ++counters;
        EXPECT_TRUE(isTableName(name)) << where << ": " << name;
        EXPECT_NO_THROW(EXPECT_EQ(report.stats.get(name), v))
            << where << ": " << name;
    });
    report.stats.forEachGauge([&](std::string_view name, double v) {
        EXPECT_TRUE(isTableName(name)) << where << ": " << name;
        EXPECT_NO_THROW(EXPECT_EQ(report.stats.gauge(name), v))
            << where << ": " << name;
    });
    report.energy.forEach([&](std::string_view name, PicoJoule pj) {
        ++components;
        EXPECT_TRUE(isTableName(name)) << where << ": " << name;
        EXPECT_NO_THROW(EXPECT_EQ(report.energy.component(name), pj))
            << where << ": " << name;
    });
    EXPECT_GT(counters, 0) << where;
    EXPECT_GT(components, 0) << where;
}

api::Session
smallRun(const std::string &platform, ModelId model)
{
    api::Session s;
    s.platform(platform).model(model).dataset(DatasetId::IB).datasetScale(
        0.2);
    return s;
}

/** One report of the registry walk. */
struct WalkRun
{
    std::string platform;
    std::string where;
    SimReport report;
};

/**
 * Every registered platform with each model it accepts, plus hygcn
 * with readout and in N-PP order, on IB at scale 0.2. Run once; every
 * check below reads it.
 */
const std::vector<WalkRun> &
registryWalk()
{
    static const std::vector<WalkRun> runs = [] {
        std::vector<WalkRun> out;
        for (const std::string &platform :
             api::Registry::global().platforms.names()) {
            for (ModelId model : allModels()) {
                try {
                    out.push_back({platform,
                                   platform + "/" + modelAbbrev(model),
                                   smallRun(platform, model).report()});
                } catch (const std::invalid_argument &) {
                    // the platform does not run this model
                }
            }
        }
        out.push_back(
            {"hygcn", "hygcn/GIN/readout",
             smallRun("hygcn", ModelId::GIN).withReadout().report()});
        out.push_back({"hygcn", "hygcn/GCN/N-PP",
                       smallRun("hygcn", ModelId::GCN)
                           .vary("interEnginePipeline", {0.0})
                           .report()});
        return out;
    }();
    return runs;
}

/** README's "Counters, gauges and energy components" section. */
std::string
readmeGlossary()
{
    std::ifstream in(HYGCN_README);
    if (!in)
        throw std::runtime_error(std::string("cannot read ") + HYGCN_README);
    std::stringstream text;
    text << in.rdbuf();
    const std::string readme = text.str();
    const std::size_t begin =
        readme.find("## Counters, gauges and energy components");
    if (begin == std::string::npos)
        throw std::runtime_error("README has no glossary section");
    return readme.substr(begin, readme.find("\n## ", begin + 1) - begin);
}

/** The platform whose emitted names a registry platform shares: the
 *  "-part" flavours emit what their base platforms do. */
std::string
basePlatform(const std::string &platform)
{
    const std::string suffix = "-part";
    if (platform.size() > suffix.size() && platform.ends_with(suffix))
        return platform.substr(0, platform.size() - suffix.size());
    return platform;
}

/** Each report key with the channel counters folded to one name. */
std::set<std::string>
emittedNames(const SimReport &report)
{
    std::set<std::string> names;
    report.stats.forEachCounter([&](std::string_view name, auto) {
        names.insert(std::string(isChannelName(name) ? "dram.chNN.bytes"
                                                     : name));
    });
    const auto insert = [&](std::string_view name, auto) {
        names.emplace(name);
    };
    report.stats.forEachGauge(insert);
    report.energy.forEach(insert);
    return names;
}

} // namespace

TEST(StatSchema, NamesAreUnique)
{
    const std::set<std::string_view> names(std::begin(kStatNames),
                                           std::end(kStatNames));
    EXPECT_EQ(names.size(), std::size(kStatNames));
}

TEST(StatSchema, EveryPlatformEmitsOnlyTableNames)
{
    for (const WalkRun &run : registryWalk())
        expectTableKeys(run.report, run.where);
}

TEST(StatSchema, ReadmeGlossaryListsEveryName)
{
    std::ifstream in(HYGCN_README);
    ASSERT_TRUE(in) << HYGCN_README;
    std::stringstream text;
    text << in.rdbuf();
    const std::string readme = text.str();
    const std::size_t begin =
        readme.find("## Counters, gauges and energy components");
    ASSERT_NE(begin, std::string::npos);
    const std::string glossary =
        readme.substr(begin, readme.find("\n## ", begin + 1) - begin);
    for (std::string_view name : kStatNames) {
        EXPECT_NE(glossary.find("`" + std::string(name) + "`"),
                  std::string::npos)
            << name;
    }
    EXPECT_NE(glossary.find("`dram.chNN.bytes`"), std::string::npos);
}

TEST(StatSchema, EmittedByColumnMatchesRuns)
{
    // The registered platforms each row's "Emitted by" cell names,
    // mapped to their base platform. Cells that name none ("none", a
    // stand-in) list no platform.
    const std::vector<std::string> registered =
        api::Registry::global().platforms.names();
    const std::set<std::string> platforms(registered.begin(),
                                          registered.end());
    std::map<std::string, std::set<std::string>> rows;
    std::istringstream glossary(readmeGlossary());
    static const std::regex row(R"(^\| `([^`]+)` \|.*\| ([^|]*) \|$)");
    static const std::regex word(R"([a-z0-9-]+)");
    for (std::string line; std::getline(glossary, line);) {
        std::smatch m;
        if (!std::regex_match(line, m, row))
            continue;
        std::set<std::string> &listed = rows[m[1]];
        const std::string cell = m[2];
        for (std::sregex_iterator it(cell.begin(), cell.end(), word), end;
             it != end; ++it) {
            if (platforms.contains(it->str()))
                listed.insert(basePlatform(it->str()));
        }
    }
    ASSERT_FALSE(rows.empty());

    std::map<std::string, std::set<std::string>> emitted;
    std::set<std::string> walked;
    for (const WalkRun &run : registryWalk()) {
        const std::string base = basePlatform(run.platform);
        walked.insert(run.platform);
        for (const std::string &name : emittedNames(run.report)) {
            const auto it = rows.find(name);
            EXPECT_TRUE(it != rows.end() && it->second.contains(base))
                << run.where << " emits " << name
                << ", whose row does not list " << base;
            emitted[base].insert(name);
        }
    }
    EXPECT_EQ(walked, platforms) << "a platform runs no model";

    for (const auto &[name, listed] : rows) {
        for (const std::string &platform : listed) {
            EXPECT_TRUE(emitted[platform].contains(name))
                << "the " << name << " row lists " << platform
                << ", but no " << platform << " run emits it";
        }
    }
}

TEST(StatSchema, UnknownNamesThrow)
{
    StatGroup s;
    EnergyLedger e;
    EXPECT_THROW(s.get("dram.bogus"), std::invalid_argument);
    EXPECT_THROW(s.gauge("agg.edges"), std::invalid_argument);
    EXPECT_THROW(s.has("nope"), std::invalid_argument);
    EXPECT_THROW(s.get("dram.ch3.bytes"), std::invalid_argument);
    EXPECT_THROW(e.component("agg.edges"), std::invalid_argument);
    EXPECT_EQ(s.get("dram.ch03.bytes"), 0u);
}
