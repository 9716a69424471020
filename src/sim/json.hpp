/**
 * @file
 * JsonWriter, the one JSON emitter of the simulator and its benches,
 * and the serializations of reports, run specs, sweeps and serving
 * runs built on it, so downstream tooling (plotting scripts,
 * regression dashboards) can consume output without parsing tables.
 */

#ifndef HYGCN_SIM_JSON_HPP
#define HYGCN_SIM_JSON_HPP

#include <concepts>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/report.hpp"

namespace hygcn::api {
struct RunSpec;
struct RunResult;
struct ServeAggregate;
} // namespace hygcn::api

namespace hygcn::serve {
struct ServeConfig;
struct ServeResult;
} // namespace hygcn::serve

namespace hygcn {

/**
 * Appends one JSON document to a string. It places the commas and
 * escapes strings; doubles print with %.9g, or with %.17g (an exact
 * round trip) through exact(). A vector is an array of its elements
 * and an empty optional is null.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Name the next value of the enclosing object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text)
    { return value(std::string_view(text)); }
    JsonWriter &value(bool flag) { return token(flag ? "true" : "false"); }
    JsonWriter &value(double number);
    template <std::integral T>
    JsonWriter &value(T number) { return token(std::to_string(number)); }
    JsonWriter &exact(double number);
    JsonWriter &null() { return token("null"); }

    template <class T>
    JsonWriter &
    value(const std::optional<T> &maybe)
    { return maybe ? value(*maybe) : null(); }

    template <class T>
    JsonWriter &
    value(const std::vector<T> &items)
    {
        beginArray();
        for (const T &item : items)
            value(item);
        return endArray();
    }

    /** key(@p name), then value(@p v). */
    template <class T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** The document written so far. */
    const std::string &str() const { return out_; }

  private:
    /** Append @p text as the next value, after a comma if one is due. */
    JsonWriter &token(std::string_view text);
    JsonWriter &open(char bracket) { return token({&bracket, 1}); }
    JsonWriter &
    close(char bracket)
    {
        out_ += bracket;
        return *this;
    }

    std::string out_;
};

/**
 * Serialize @p report as a single JSON object: platform, cycles,
 * seconds, joules, energy components (pJ), counters, and gauges.
 */
std::string toJson(const SimReport &report);

/**
 * Serialize @p spec as a JSON object: platform, dataset, model,
 * seeds, run mode flags, and the varied sweep parameters.
 */
std::string toJson(const api::RunSpec &spec);

/** Serialize one run: the spec echo plus its report. */
std::string toJson(const api::RunResult &result);

/**
 * Serialize a whole sweep as a JSON array, one element per run with
 * its spec echoed, so plotting scripts can consume sweep output
 * directly. Deterministic in the sweep's expansion order.
 */
std::string toJson(const std::vector<api::RunResult> &sweep);

/**
 * Serialize a serving config: platform, scenarios, tenants, arrival
 * process, and batching knobs.
 */
std::string toJson(const serve::ServeConfig &config);

/**
 * Serialize a serving run: the config echo, aggregate stats
 * (throughput, utilization, latency percentiles), per-scenario unit
 * service cycles, and — when @p per_request — the full per-request
 * and per-batch trace. Deterministic in the config.
 */
std::string toJson(const serve::ServeResult &result,
                   bool per_request = true);

/**
 * Serialize a seed-aggregated sweep (ServeSweep::runAggregated()) as
 * a JSON array: one element per sweep point with its config echoed,
 * the seeds aggregated over, and mean/stddev/min/max error bars per
 * headline metric. Deterministic in the sweep's expansion order.
 */
std::string toJson(const std::vector<api::ServeAggregate> &aggregates);

} // namespace hygcn

#endif // HYGCN_SIM_JSON_HPP
