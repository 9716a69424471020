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

#include "api/registry.hpp"
#include "api/session.hpp"
#include "sim/stats.hpp"

using namespace hygcn;

namespace {

/** A table row's name, or one of the "dram.chNN.bytes" channels. */
bool
isTableName(const std::string &name)
{
    static const std::regex channel(R"(dram\.ch[0-9]{2,}\.bytes)");
    return std::ranges::find(kStatNames, name) != std::end(kStatNames) ||
           std::regex_match(name, channel);
}

/** Expect every key of @p report to be a table name that reads back. */
void
expectTableKeys(const SimReport &report, const std::string &where)
{
    for (const auto &[name, v] : report.stats.counters()) {
        EXPECT_TRUE(isTableName(name)) << where << ": " << name;
        EXPECT_NO_THROW(EXPECT_EQ(report.stats.get(name), v))
            << where << ": " << name;
    }
    for (const auto &[name, v] : report.stats.gauges()) {
        EXPECT_TRUE(isTableName(name)) << where << ": " << name;
        EXPECT_NO_THROW(EXPECT_EQ(report.stats.gauge(name), v))
            << where << ": " << name;
    }
    for (const auto &[name, pj] : report.energy.components()) {
        EXPECT_TRUE(isTableName(name)) << where << ": " << name;
        EXPECT_NO_THROW(EXPECT_EQ(report.energy.component(name), pj))
            << where << ": " << name;
    }
    EXPECT_FALSE(report.stats.counters().empty()) << where;
    EXPECT_FALSE(report.energy.components().empty()) << where;
}

api::Session
smallRun(const std::string &platform, ModelId model)
{
    api::Session s;
    s.platform(platform).model(model).dataset(DatasetId::IB).datasetScale(
        0.2);
    return s;
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
    static const std::regex channel(R"(dram\.ch[0-9]{2,}\.bytes)");
    std::set<std::string> names;
    for (const auto &[name, v] : report.stats.counters())
        names.insert(std::regex_match(name, channel) ? "dram.chNN.bytes"
                                                     : name);
    for (const auto &[name, v] : report.stats.gauges())
        names.insert(name);
    for (const auto &[name, pj] : report.energy.components())
        names.insert(name);
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
    for (const char *platform :
         {"hygcn", "pyg-cpu", "pyg-cpu-part", "pyg-gpu", "pyg-gpu-part"}) {
        for (ModelId model : allModels()) {
            const std::string where =
                std::string(platform) + "/" + modelAbbrev(model);
            expectTableKeys(smallRun(platform, model).report(), where);
        }
    }
    expectTableKeys(smallRun("hygcn", ModelId::GIN).withReadout().report(),
                    "hygcn/GIN/readout");
    expectTableKeys(smallRun("hygcn", ModelId::GCN)
                        .vary("interEnginePipeline", {0.0})
                        .report(),
                    "hygcn/GCN/N-PP");
    expectTableKeys(smallRun("hygcn-agg", ModelId::GCN).report(),
                    "hygcn-agg");
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

    // Every registered platform with each model it accepts, plus
    // hygcn with readout and in N-PP order.
    std::map<std::string, std::set<std::string>> emitted;
    auto note = [&](const std::string &platform, const SimReport &report,
                    const std::string &where) {
        const std::string base = basePlatform(platform);
        for (const std::string &name : emittedNames(report)) {
            const auto it = rows.find(name);
            EXPECT_TRUE(it != rows.end() && it->second.contains(base))
                << where << " emits " << name
                << ", whose row does not list " << base;
            emitted[base].insert(name);
        }
    };
    for (const std::string &platform : registered) {
        int accepted = 0;
        for (ModelId model : allModels()) {
            SimReport report;
            try {
                report = smallRun(platform, model).report();
            } catch (const std::invalid_argument &) {
                continue; // the platform does not run this model
            }
            ++accepted;
            note(platform, report, platform + "/" + modelAbbrev(model));
        }
        EXPECT_GT(accepted, 0) << platform;
    }
    note("hygcn", smallRun("hygcn", ModelId::GIN).withReadout().report(),
         "hygcn/GIN/readout");
    note("hygcn",
         smallRun("hygcn", ModelId::GCN)
             .vary("interEnginePipeline", {0.0})
             .report(),
         "hygcn/GCN/N-PP");

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

TEST(StatSchema, CountersSortByNameWithChannels)
{
    StatGroup s;
    s.add(Counter::DramReadBytes, 1);
    s.add(Counter::DramBusyCycles, 1);
    for (std::uint32_t ch : {11u, 100u, 10u})
        s.addChannelBytes(ch, ch);
    std::vector<std::string> names;
    for (const auto &[name, v] : s.counters())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "dram.busy_cycles", "dram.ch10.bytes",
                         "dram.ch100.bytes", "dram.ch11.bytes",
                         "dram.read_bytes"}));
    EXPECT_EQ(s.get("dram.ch100.bytes"), 100u);
}
