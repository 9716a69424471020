/**
 * JsonWriter: comma placement, escaping and the two number formats,
 * and a report's counters in name order with the HBM channel
 * counters merged where they sort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/json.hpp"

using namespace hygcn;

TEST(Json, CommasInNestedObjectsAndArrays)
{
    JsonWriter w;
    w.beginObject()
        .field("a", 1)
        .key("b")
        .beginArray()
        .value(2)
        .beginObject()
        .field("c", true)
        .field("d", "x")
        .endObject()
        .value(std::vector<std::vector<int>>{{3, 4}, {5}})
        .endArray()
        .field("e", std::optional<int>())
        .field("f", std::optional<int>(6))
        .endObject();
    EXPECT_EQ(w.str(), R"({"a":1,"b":[2,{"c":true,"d":"x"},[[3,4],[5]]],)"
                       R"("e":null,"f":6})");
}

TEST(Json, EmptyObjectsAndArrays)
{
    JsonWriter w;
    w.beginArray()
        .beginObject()
        .endObject()
        .beginArray()
        .endArray()
        .value(std::vector<int>())
        .beginObject()
        .key("o")
        .beginObject()
        .endObject()
        .endObject()
        .endArray();
    EXPECT_EQ(w.str(), R"([{},[],[],{"o":{}}])");
}

TEST(Json, EscapesSpecials)
{
    JsonWriter w;
    w.beginObject()
        .field("k\"ey", "a\"b\\c\nd\x01")
        .field("plain", "plain")
        .endObject();
    EXPECT_EQ(w.str(), R"({"k\"ey":"a\"b\\c\nd\u0001","plain":"plain"})");
}

TEST(Json, NumberFormats)
{
    JsonWriter w;
    w.beginArray()
        .value(-0.0)
        .exact(-0.0)
        .value(1e-300)
        .exact(1e-300)
        .value(1.0 / 3.0)
        .exact(1.0 / 3.0)
        .value(std::uint64_t{18446744073709551615ull})
        .value(-7)
        .endArray();
    EXPECT_EQ(w.str(), "[-0,-0,1e-300,1e-300,0.333333333,"
                       "0.33333333333333331,18446744073709551615,-7]");

    // %.17g round-trips every double; %.9g does not.
    for (double v : {1.0 / 3.0, 0.1, 6.02214076e23, 1e-300}) {
        JsonWriter exact;
        exact.exact(v);
        EXPECT_EQ(std::strtod(exact.str().c_str(), nullptr), v) << v;
    }
    JsonWriter rounded;
    rounded.value(1.0 / 3.0);
    EXPECT_NE(std::strtod(rounded.str().c_str(), nullptr), 1.0 / 3.0);
}

TEST(Json, SerializesReport)
{
    SimReport r;
    r.platform = "HyGCN";
    r.cycles = 1000;
    r.stats.add(Counter::DramReadBytes, 64);
    r.stats.set(Gauge::DramBandwidthUtilization, 0.5);
    r.energy.charge(Energy::Dram, 123.0);
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"platform\":\"HyGCN\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":1000"), std::string::npos);
    EXPECT_NE(json.find("\"dram.read_bytes\":64"), std::string::npos);
    EXPECT_NE(json.find("\"dram.bandwidth_utilization\":0.5"),
              std::string::npos);
    EXPECT_NE(json.find("\"dram\":123"), std::string::npos);
    // Crude structural sanity: balanced braces.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// The report's counters in std::map order: the table rows with the
// channel counters merged in, channel 100 between 10 and 11.
TEST(StatSchema, CountersSortByNameWithChannels)
{
    SimReport report;
    report.stats.add(Counter::DramReadBytes, 1);
    report.stats.add(Counter::DramBusyCycles, 2);
    std::map<std::string, std::uint64_t> sorted = {
        {"dram.busy_cycles", 2}, {"dram.read_bytes", 1}};
    for (std::uint32_t ch : {11u, 100u, 3u, 10u}) {
        report.stats.addChannelBytes(ch, ch);
        sorted["dram.ch" + std::string(ch < 10 ? "0" : "") +
               std::to_string(ch) + ".bytes"] = ch;
    }
    JsonWriter counters;
    counters.beginObject();
    for (const auto &[name, v] : sorted)
        counters.field(name, v);
    counters.endObject();

    const std::string json = toJson(report);
    EXPECT_NE(json.find("\"counters\":" + counters.str()), std::string::npos)
        << json;
    EXPECT_NE(json.find(R"("dram.busy_cycles":2,"dram.ch03.bytes":3,)"
                        R"("dram.ch10.bytes":10,"dram.ch100.bytes":100,)"
                        R"("dram.ch11.bytes":11,"dram.read_bytes":1})"),
              std::string::npos)
        << json;
    EXPECT_EQ(report.stats.get("dram.ch100.bytes"), 100u);
}
