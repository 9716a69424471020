/**
 * The counter, gauge and energy-component table: names are unique,
 * every key a built-in platform emits is a table name (or an HBM
 * channel's "dram.chNN.bytes"), README's glossary lists every row,
 * and reading a name outside the table throws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

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
