#include "sim/report.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace hygcn {

namespace {

std::string
formatEng(double value, const char *unit,
          const std::array<const char *, 5> &prefixes, double base)
{
    double v = std::fabs(value);
    std::size_t idx = 0;
    while (v >= base && idx + 1 < prefixes.size()) {
        v /= base;
        value /= base;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g %s%s", value, prefixes[idx], unit);
    return buf;
}

std::string
formatEngSmall(double value, const char *unit)
{
    static const std::array<const char *, 5> prefixes = {
        "", "m", "u", "n", "p"
    };
    double v = std::fabs(value);
    std::size_t idx = 0;
    while (v < 1.0 && v > 0.0 && idx + 1 < prefixes.size()) {
        v *= 1000.0;
        value *= 1000.0;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g %s%s", value, prefixes[idx], unit);
    return buf;
}

} // namespace

std::string
formatSeconds(double seconds)
{
    return formatEngSmall(seconds, "s");
}

std::string
formatJoules(double joules)
{
    return formatEngSmall(joules, "J");
}

std::string
formatBytes(double bytes)
{
    static const std::array<const char *, 5> prefixes = {
        "", "Ki", "Mi", "Gi", "Ti"
    };
    return formatEng(bytes, "B", prefixes, 1024.0);
}

} // namespace hygcn
