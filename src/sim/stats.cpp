#include "sim/stats.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace hygcn {

double
percentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, p);
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double clamped = std::min(std::max(p, 0.0), 100.0);
    const double rank =
        clamped / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac;
}

namespace {

/** "dram.chNN.bytes" for @p channel. */
std::string
channelName(std::uint32_t channel)
{
    char name[32];
    std::snprintf(name, sizeof(name), "dram.ch%02u.bytes", channel);
    return name;
}

/** The channel a "dram.chNN.bytes" name spells, if it spells one. */
std::optional<std::uint32_t>
channelOf(std::string_view name)
{
    constexpr std::string_view prefix = "dram.ch";
    if (!name.starts_with(prefix))
        return std::nullopt;
    std::uint32_t channel = 0;
    const char *digits = name.data() + prefix.size();
    const auto [end, ec] =
        std::from_chars(digits, name.data() + name.size(), channel);
    if (ec != std::errc() || channelName(channel) != name)
        return std::nullopt;
    return channel;
}

[[noreturn]] void
unknown(const char *kind, std::string_view name)
{
    throw std::invalid_argument("stats: no " + std::string(kind) +
                                " named \"" + std::string(name) + "\"");
}

} // namespace

void
StatGroup::addChannelBytes(std::uint32_t channel, std::uint64_t bytes)
{
    if (channel >= channelBytes_.size())
        channelBytes_.resize(channel + 1, 0);
    channelBytes_[channel] += bytes;
}

std::uint64_t
StatGroup::channelBytes(std::uint32_t channel) const
{
    return channel < channelBytes_.size() ? channelBytes_[channel] : 0;
}

std::uint64_t
StatGroup::get(std::string_view name) const
{
    if (const auto id = StatSlots<Counter, std::uint64_t>::find(name))
        return get(*id);
    if (const auto channel = channelOf(name))
        return channelBytes(*channel);
    unknown("counter", name);
}

double
StatGroup::gauge(std::string_view name) const
{
    if (const auto id = StatSlots<Gauge, double>::find(name))
        return gauge(*id);
    unknown("gauge", name);
}

bool
StatGroup::has(std::string_view name) const
{
    if (const auto id = StatSlots<Counter, std::uint64_t>::find(name))
        return counters_.has(*id);
    if (const auto id = StatSlots<Gauge, double>::find(name))
        return gauges_.has(*id);
    if (const auto channel = channelOf(name))
        return channelBytes(*channel) != 0;
    unknown("counter or gauge", name);
}

void
StatGroup::merge(const StatGroup &other)
{
    counters_.merge(other.counters_,
                    [](std::uint64_t &mine, std::uint64_t v) { mine += v; });
    gauges_.merge(other.gauges_, [](double &mine, double v) { mine = v; });
    for (std::uint32_t ch = 0; ch < other.channelBytes_.size(); ++ch)
        if (other.channelBytes_[ch] != 0)
            addChannelBytes(ch, other.channelBytes_[ch]);
}

std::vector<std::pair<std::string, std::uint64_t>>
StatGroup::channelEntries() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (std::uint32_t ch = 0; ch < channelBytes_.size(); ++ch)
        if (channelBytes_[ch] != 0)
            out.emplace_back(channelName(ch), channelBytes_[ch]);
    std::ranges::sort(out);
    return out;
}

bool
StatGroup::operator==(const StatGroup &other) const
{
    const std::size_t channels =
        std::max(channelBytes_.size(), other.channelBytes_.size());
    for (std::uint32_t ch = 0; ch < channels; ++ch)
        if (channelBytes(ch) != other.channelBytes(ch))
            return false;
    return counters_ == other.counters_ && gauges_ == other.gauges_;
}

PicoJoule
EnergyLedger::total() const
{
    PicoJoule sum = 0.0;
    components_.forEach([&](std::string_view, PicoJoule pj) { sum += pj; });
    return sum;
}

PicoJoule
EnergyLedger::component(std::string_view name) const
{
    if (const auto id = StatSlots<Energy, PicoJoule>::find(name))
        return component(*id);
    unknown("energy component", name);
}

void
EnergyLedger::merge(const EnergyLedger &other)
{
    components_.merge(other.components_,
                      [](PicoJoule &mine, PicoJoule pj) { mine += pj; });
}

} // namespace hygcn
