#include "api/serve_sweep.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "sim/thread_pool.hpp"

namespace hygcn::api {

AggregateStat
aggregateStat(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument(
            "api: aggregateStat over no values");
    AggregateStat stat;
    stat.min = values.front();
    stat.max = values.front();
    double sum = 0.0;
    for (double v : values) {
        sum += v;
        stat.min = std::min(stat.min, v);
        stat.max = std::max(stat.max, v);
    }
    stat.mean = sum / static_cast<double>(values.size());
    if (values.size() > 1) {
        double ss = 0.0;
        for (double v : values)
            ss += (v - stat.mean) * (v - stat.mean);
        stat.stddev =
            std::sqrt(ss / static_cast<double>(values.size() - 1));
    }
    return stat;
}

ServeSweep::ServeSweep(serve::ServeConfig base) : base_(std::move(base))
{
}

ServeSweep
ServeSweep::workload(const std::string &name)
{
    return ServeSweep(Registry::global().workloads.make(name));
}

ServeSweep &
ServeSweep::policies(std::vector<std::string> names)
{
    policies_ = std::move(names);
    return *this;
}

ServeSweep &
ServeSweep::costModels(std::vector<std::string> names)
{
    costModels_ = std::move(names);
    return *this;
}

ServeSweep &
ServeSweep::objectives(std::vector<std::string> names)
{
    objectives_ = std::move(names);
    return *this;
}

ServeSweep &
ServeSweep::routingLookaheads(std::vector<bool> values)
{
    routingLookaheads_ = std::move(values);
    return *this;
}

ServeSweep &
ServeSweep::affinityMargins(std::vector<double> margins)
{
    affinityMargins_ = std::move(margins);
    return *this;
}

ServeSweep &
ServeSweep::clusters(std::vector<serve::ClusterSpec> specs)
{
    clusters_ = std::move(specs);
    return *this;
}

ServeSweep &
ServeSweep::maxBatches(std::vector<std::uint32_t> sizes)
{
    maxBatches_ = std::move(sizes);
    return *this;
}

ServeSweep &
ServeSweep::arrivalRates(std::vector<double> mean_interarrival_cycles)
{
    arrivalRates_ = std::move(mean_interarrival_cycles);
    return *this;
}

ServeSweep &
ServeSweep::arrivalProcesses(std::vector<std::string> names)
{
    arrivalProcesses_ = std::move(names);
    return *this;
}

ServeSweep &
ServeSweep::scalingPolicies(std::vector<std::string> names)
{
    scalingPolicies_ = std::move(names);
    return *this;
}

ServeSweep &
ServeSweep::powerCapsWatts(std::vector<double> watts)
{
    powerCapsWatts_ = std::move(watts);
    return *this;
}

ServeSweep &
ServeSweep::kernelThreads(std::vector<int> counts)
{
    kernelThreads_ = std::move(counts);
    return *this;
}

ServeSweep &
ServeSweep::seeds(std::vector<std::uint64_t> seeds)
{
    seeds_ = std::move(seeds);
    return *this;
}

ServeSweep &
ServeSweep::threads(unsigned count)
{
    threads_ = count;
    return *this;
}

std::size_t
ServeSweep::size() const
{
    return std::max<std::size_t>(policies_.size(), 1) *
           std::max<std::size_t>(costModels_.size(), 1) *
           std::max<std::size_t>(objectives_.size(), 1) *
           std::max<std::size_t>(routingLookaheads_.size(), 1) *
           std::max<std::size_t>(affinityMargins_.size(), 1) *
           std::max<std::size_t>(clusters_.size(), 1) *
           std::max<std::size_t>(maxBatches_.size(), 1) *
           std::max<std::size_t>(arrivalRates_.size(), 1) *
           std::max<std::size_t>(arrivalProcesses_.size(), 1) *
           std::max<std::size_t>(scalingPolicies_.size(), 1) *
           std::max<std::size_t>(powerCapsWatts_.size(), 1) *
           std::max<std::size_t>(kernelThreads_.size(), 1) *
           std::max<std::size_t>(seeds_.size(), 1);
}

std::vector<serve::ServeConfig>
ServeSweep::expand() const
{
    // Unset axes fall back to the base config's value.
    const std::vector<std::string> policies =
        policies_.empty() ? std::vector<std::string>{base_.policy}
                          : policies_;
    const std::vector<std::string> cost_models =
        costModels_.empty()
            ? std::vector<std::string>{base_.batching.costModel}
            : costModels_;
    const std::vector<std::string> objectives =
        objectives_.empty()
            ? std::vector<std::string>{base_.routing.objective}
            : objectives_;
    const std::vector<bool> lookaheads =
        routingLookaheads_.empty()
            ? std::vector<bool>{base_.routing.lookahead}
            : routingLookaheads_;
    const std::vector<double> affinity_margins =
        affinityMargins_.empty()
            ? std::vector<double>{base_.routing.affinityMargin}
            : affinityMargins_;
    const std::vector<serve::ClusterSpec> clusters =
        clusters_.empty() ? std::vector<serve::ClusterSpec>{base_.cluster}
                          : clusters_;
    const std::vector<std::uint32_t> max_batches =
        maxBatches_.empty()
            ? std::vector<std::uint32_t>{base_.batching.maxBatch}
            : maxBatches_;
    const std::vector<double> rates =
        arrivalRates_.empty()
            ? std::vector<double>{base_.meanInterarrivalCycles}
            : arrivalRates_;
    const std::vector<std::string> processes =
        arrivalProcesses_.empty()
            ? std::vector<std::string>{base_.arrival.process}
            : arrivalProcesses_;
    const std::vector<std::string> scaling_policies =
        scalingPolicies_.empty()
            ? std::vector<std::string>{base_.control.scalingPolicy}
            : scalingPolicies_;
    const std::vector<double> power_caps =
        powerCapsWatts_.empty()
            ? std::vector<double>{base_.control.powerCapWatts}
            : powerCapsWatts_;
    const std::vector<std::uint64_t> seeds =
        seeds_.empty() ? std::vector<std::uint64_t>{base_.seed}
                       : seeds_;
    // Unset => keep whatever each base scenario already carries.
    const std::vector<int> kernel_threads =
        kernelThreads_.empty() ? std::vector<int>{-1} : kernelThreads_;

    std::vector<serve::ServeConfig> configs;
    configs.reserve(size());
    // The cartesian product, flattened: policies outermost, seeds
    // innermost, matching the documented expansion order.
    const std::size_t total = size();
    for (std::size_t i = 0; i < total; ++i) {
        std::size_t rest = i;
        const std::uint64_t seed = seeds[rest % seeds.size()];
        rest /= seeds.size();
        const int kt = kernel_threads[rest % kernel_threads.size()];
        rest /= kernel_threads.size();
        const double cap = power_caps[rest % power_caps.size()];
        rest /= power_caps.size();
        const std::string &scaling =
            scaling_policies[rest % scaling_policies.size()];
        rest /= scaling_policies.size();
        const std::string &process = processes[rest % processes.size()];
        rest /= processes.size();
        const double rate = rates[rest % rates.size()];
        rest /= rates.size();
        const std::uint32_t max_batch =
            max_batches[rest % max_batches.size()];
        rest /= max_batches.size();
        const serve::ClusterSpec &cluster =
            clusters[rest % clusters.size()];
        rest /= clusters.size();
        const double affinity_margin =
            affinity_margins[rest % affinity_margins.size()];
        rest /= affinity_margins.size();
        const bool lookahead = lookaheads[rest % lookaheads.size()];
        rest /= lookaheads.size();
        const std::string &objective =
            objectives[rest % objectives.size()];
        rest /= objectives.size();
        const std::string &cost_model =
            cost_models[rest % cost_models.size()];
        rest /= cost_models.size();
        const std::string &policy = policies[rest % policies.size()];

        serve::ServeConfig config = base_;
        config.policy = policy;
        config.batching.costModel = cost_model;
        config.routing.objective = objective;
        config.routing.lookahead = lookahead;
        config.routing.affinityMargin = affinity_margin;
        config.cluster = cluster;
        config.batching.maxBatch = max_batch;
        config.meanInterarrivalCycles = rate;
        config.arrival.process = process;
        config.control.scalingPolicy = scaling;
        config.control.powerCapWatts = cap;
        if (kt >= 0)
            for (serve::ServeScenario &scenario : config.scenarios)
                scenario.spec.threads = kt;
        config.seed = seed;
        configs.push_back(std::move(config));
    }
    return configs;
}

std::vector<serve::ServeResult>
ServeSweep::runAll() const
{
    const std::vector<serve::ServeConfig> configs = expand();
    std::vector<serve::ServeResult> results(configs.size());
    auto run = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            results[i] = serve::runServe(configs[i]);
    };
    ThreadPool::global().parallelFor(threads_, configs.size(), 1, run);
    return results;
}

std::vector<ServeAggregate>
ServeSweep::runAggregated() const
{
    const std::vector<serve::ServeResult> results = runAll();

    // Seeds are the innermost axis, so each sweep point's replicates
    // are consecutive chunks of `replicates` results.
    const std::size_t replicates = std::max<std::size_t>(
        seeds_.size(), 1);
    std::vector<ServeAggregate> aggregates;
    aggregates.reserve(results.size() / replicates);
    for (std::size_t base = 0; base < results.size();
         base += replicates) {
        ServeAggregate agg;
        agg.config = results[base].config;
        std::vector<double> p50, p99, mean_latency, throughput;
        std::vector<double> queue_wait, batch_size, joules, violations;
        for (std::size_t r = 0; r < replicates; ++r) {
            const serve::ServeStats &stats = results[base + r].stats;
            agg.seeds.push_back(results[base + r].config.seed);
            p50.push_back(stats.p50LatencyCycles);
            p99.push_back(stats.p99LatencyCycles);
            mean_latency.push_back(stats.meanLatencyCycles);
            throughput.push_back(stats.throughputRps);
            queue_wait.push_back(stats.meanQueueWaitCycles);
            batch_size.push_back(stats.meanBatchSize);
            joules.push_back(stats.totalJoules);
            double misses = 0.0;
            for (const serve::TenantStats &t : stats.tenantStats)
                misses += static_cast<double>(t.sloViolations);
            violations.push_back(misses);
        }
        agg.p50LatencyCycles = aggregateStat(p50);
        agg.p99LatencyCycles = aggregateStat(p99);
        agg.meanLatencyCycles = aggregateStat(mean_latency);
        agg.throughputRps = aggregateStat(throughput);
        agg.meanQueueWaitCycles = aggregateStat(queue_wait);
        agg.meanBatchSize = aggregateStat(batch_size);
        agg.totalJoules = aggregateStat(joules);
        agg.sloViolations = aggregateStat(violations);
        aggregates.push_back(std::move(agg));
    }
    return aggregates;
}

} // namespace hygcn::api
