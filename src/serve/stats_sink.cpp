#include "serve/stats_sink.hpp"

#include <algorithm>
#include <ostream>

#include "sim/stats.hpp"

namespace hygcn::serve {

// ---- LatencyReservoir ----------------------------------------------

LatencyReservoir::LatencyReservoir(std::size_t capacity,
                                   std::uint64_t seed)
    : capacity_(std::max<std::size_t>(capacity, 1)), rng_(seed)
{
    if (capacity_ != kUnbounded)
        samples_.reserve(capacity_);
}

void
LatencyReservoir::add(double sample)
{
    ++seen_;
    if (samples_.size() < capacity_) {
        samples_.push_back(sample);
        return;
    }
    // Algorithm R: the i-th sample (1-based seen_) replaces a
    // uniformly-chosen slot with probability capacity/seen_, keeping
    // every prefix a uniform sample of the stream.
    const std::uint64_t slot = rng_.nextBounded(seen_);
    if (slot < capacity_)
        samples_[static_cast<std::size_t>(slot)] = sample;
}

std::vector<double>
LatencyReservoir::sorted() const
{
    std::vector<double> out = samples_;
    std::sort(out.begin(), out.end());
    return out;
}

double
LatencyReservoir::percentile(double p) const
{
    return percentileSorted(sorted(), p);
}

// ---- StreamingStatsSink --------------------------------------------

namespace {

/** Splitmix-style stir so per-tenant reservoirs draw independent
 *  replacement streams from one config seed. */
std::uint64_t
stirSeed(std::uint64_t seed, std::uint64_t lane)
{
    return seed ^ (0x9e3779b97f4a7c15ull * (lane + 1));
}

} // namespace

StreamingStatsSink::StreamingStatsSink(std::size_t num_tenants,
                                       std::size_t num_classes,
                                       std::size_t reservoir_capacity,
                                       std::uint64_t seed,
                                       std::uint64_t flush_every,
                                       std::ostream *flush_to)
    : latencies_(reservoir_capacity, stirSeed(seed, 0)),
      classJoules_(num_classes, 0.0), flushEvery_(flush_every),
      nextFlush_(flush_every), flushTo_(flush_to)
{
    tenants_.reserve(num_tenants);
    for (std::size_t t = 0; t < num_tenants; ++t)
        tenants_.emplace_back(reservoir_capacity, stirSeed(seed, t + 1));
}

void
StreamingStatsSink::onBatch(Cycle dispatch, Cycle completion,
                            double joules, std::uint32_t class_index,
                            const std::vector<ServeRequest> &members)
{
    ++batches_;
    totalJoules_ += joules;
    if (class_index < classJoules_.size())
        classJoules_[class_index] += joules;
    if (members.empty())
        return;

    // Each batch's cycles and joules split evenly across its
    // members.
    const double size = static_cast<double>(members.size());
    const double member_cycles =
        static_cast<double>(completion - dispatch) / size;
    const double member_joules = joules / size;

    for (const ServeRequest &member : members) {
        ++requests_;
        const double latency =
            static_cast<double>(completion - member.arrival);
        const double wait =
            static_cast<double>(dispatch - member.arrival);
        latencySum_ += latency;
        waitSum_ += wait;
        maxLatency_ = std::max(maxLatency_, latency);
        latencies_.add(latency);
        if (member.tenant < tenants_.size()) {
            TenantAccum &tenant = tenants_[member.tenant];
            ++tenant.requests;
            tenant.latencySum += latency;
            tenant.latencies.add(latency);
            if (member.deadline != kNeverCycle &&
                completion > member.deadline)
                ++tenant.sloViolations;
            tenant.cycles += member_cycles;
            totalCycles_ += member_cycles;
            tenant.joules += member_joules;
        }
    }

    if (flushEvery_ > 0 && flushTo_ != nullptr &&
        requests_ >= nextFlush_) {
        flushLine(completion);
        while (nextFlush_ <= requests_)
            nextFlush_ += flushEvery_;
    }
}

void
StreamingStatsSink::flushLine(Cycle up_to)
{
    const double n = static_cast<double>(requests_);
    *flushTo_ << "serve: " << requests_ << " reqs, " << batches_
              << " batches, cycle " << up_to
              << ", mean_latency_cycles=" << latencySum_ / n
              << ", p99_latency_cycles~=" << latencies_.percentile(99.0)
              << "\n";
}

ServeStats
StreamingStatsSink::finish(const std::vector<InstanceRecord> &instances,
                           Cycle makespan, double clock_hz,
                           const std::vector<TenantMix> &tenants,
                           const std::vector<std::string> &class_labels)
    const
{
    ServeStats stats;
    stats.requests = requests_;
    stats.batches = batches_;
    stats.makespanCycles = makespan;
    if (batches_ > 0)
        stats.meanBatchSize = static_cast<double>(requests_) /
                              static_cast<double>(batches_);

    const double makespan_secs =
        clock_hz > 0.0 ? static_cast<double>(makespan) / clock_hz : 0.0;
    if (makespan_secs > 0.0)
        stats.throughputRps =
            static_cast<double>(requests_) / makespan_secs;

    if (requests_ > 0) {
        const double n = static_cast<double>(requests_);
        stats.meanQueueWaitCycles = waitSum_ / n;
        stats.meanLatencyCycles = latencySum_ / n;
    }
    stats.maxLatencyCycles = maxLatency_;
    const std::vector<double> sorted = latencies_.sorted();
    stats.p50LatencyCycles = percentileSorted(sorted, 50.0);
    stats.p95LatencyCycles = percentileSorted(sorted, 95.0);
    stats.p99LatencyCycles = percentileSorted(sorted, 99.0);

    stats.instanceUtilization.reserve(instances.size());
    for (const InstanceRecord &inst : instances)
        stats.instanceUtilization.push_back(inst.utilization);

    stats.totalJoules = totalJoules_;
    if (requests_ > 0)
        stats.meanJoulesPerRequest =
            totalJoules_ / static_cast<double>(requests_);

    stats.tenantStats.resize(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        TenantStats &ts = stats.tenantStats[t];
        ts.name = tenants[t].name;
        if (t >= tenants_.size())
            continue;
        const TenantAccum &acc = tenants_[t];
        ts.requests = acc.requests;
        if (acc.requests > 0)
            ts.meanLatencyCycles =
                acc.latencySum / static_cast<double>(acc.requests);
        ts.p99LatencyCycles = acc.latencies.percentile(99.0);
        ts.sloViolations = acc.sloViolations;
        if (totalCycles_ > 0.0)
            ts.servedShare = acc.cycles / totalCycles_;
        ts.joules = acc.joules;
    }

    stats.classStats.resize(class_labels.size());
    for (std::size_t c = 0; c < class_labels.size(); ++c)
        stats.classStats[c].label = class_labels[c];
    for (const InstanceRecord &inst : instances) {
        if (inst.classIndex >= stats.classStats.size())
            continue;
        ClassStats &cs = stats.classStats[inst.classIndex];
        ++cs.instances;
        cs.batches += inst.batches;
        cs.requests += inst.requests;
        cs.busyCycles += inst.busyCycles;
    }
    for (std::size_t c = 0; c < stats.classStats.size(); ++c)
        if (c < classJoules_.size())
            stats.classStats[c].joules = classJoules_[c];
    for (ClassStats &cs : stats.classStats)
        if (cs.instances > 0 && makespan > 0)
            cs.utilization =
                static_cast<double>(cs.busyCycles) /
                (static_cast<double>(cs.instances) *
                 static_cast<double>(makespan));

    return stats;
}

} // namespace hygcn::serve
