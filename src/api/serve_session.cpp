#include "api/serve_session.hpp"

#include <utility>

#include "api/registry.hpp"

namespace hygcn::api {

ServeSession::ServeSession(serve::ServeConfig config)
    : config_(std::move(config))
{
    // Scenarios added later take the scale (and kernel thread count)
    // the incoming config already uses, not full size.
    if (!config_.scenarios.empty()) {
        datasetScale_ = config_.scenarios.front().spec.datasetScale;
        kernelThreads_ = config_.scenarios.front().spec.threads;
    }
}

ServeSession
ServeSession::workload(const std::string &name)
{
    return ServeSession(Registry::global().workloads.make(name));
}

ServeSession &
ServeSession::platform(const std::string &name)
{
    config_.platform = name;
    return *this;
}

ServeSession &
ServeSession::instances(std::uint32_t count)
{
    config_.instances = count;
    return *this;
}

ServeSession &
ServeSession::instanceClass(const std::string &name, std::uint32_t count)
{
    return instanceClass(name, count, 0, 0);
}

ServeSession &
ServeSession::instanceClass(const std::string &name, std::uint32_t count,
                            const HyGCNConfig &config)
{
    instanceClass(name, count, 0, 0);
    config_.cluster.classes.back().hygcn = config;
    return *this;
}

ServeSession &
ServeSession::instanceClass(const std::string &name, std::uint32_t count,
                            std::uint32_t min_count,
                            std::uint32_t max_count)
{
    serve::ClusterSpec::InstanceClass cls;
    cls.platform = name;
    cls.count = count;
    cls.minCount = min_count;
    cls.maxCount = max_count;
    config_.cluster.classes.push_back(std::move(cls));
    return *this;
}

ServeSession &
ServeSession::policy(const std::string &name)
{
    config_.policy = name;
    return *this;
}

ServeSession &
ServeSession::scenario(const std::string &dataset, const std::string &model)
{
    const Registry &registry = Registry::global();
    serve::ServeScenario scenario;
    scenario.name = dataset + "/" + model;
    // Built-in names resolve to ids; registered custom datasets and
    // models address by name.
    try {
        scenario.spec.dataset = registry.datasetId(dataset);
    } catch (const std::out_of_range &) {
        if (!registry.datasets.has(dataset))
            throw;
        scenario.spec.datasetName = dataset;
    }
    try {
        scenario.spec.model = registry.modelId(model);
    } catch (const std::out_of_range &) {
        if (!registry.models.has(model))
            throw;
        scenario.spec.modelName = model;
    }
    return this->scenario(std::move(scenario));
}

ServeSession &
ServeSession::scenario(serve::ServeScenario scenario)
{
    if (datasetScale_)
        scenario.spec.datasetScale = *datasetScale_;
    if (kernelThreads_)
        scenario.spec.threads = *kernelThreads_;
    config_.scenarios.push_back(std::move(scenario));
    return *this;
}

ServeSession &
ServeSession::datasetScale(double scale)
{
    datasetScale_ = scale;
    for (serve::ServeScenario &scenario : config_.scenarios)
        scenario.spec.datasetScale = scale;
    return *this;
}

ServeSession &
ServeSession::kernelThreads(int count)
{
    kernelThreads_ = count;
    for (serve::ServeScenario &scenario : config_.scenarios)
        scenario.spec.threads = count;
    return *this;
}

ServeSession &
ServeSession::tenant(const std::string &name, double weight,
                     std::vector<double> scenario_weights)
{
    return tenant(name, weight, std::move(scenario_weights), 0, 0.0);
}

ServeSession &
ServeSession::tenant(const std::string &name, double weight,
                     std::vector<double> scenario_weights,
                     Cycle slo_cycles, double share_quota)
{
    serve::TenantMix mix;
    mix.name = name;
    mix.weight = weight;
    mix.scenarioWeights = std::move(scenario_weights);
    mix.sloLatencyCycles = slo_cycles;
    mix.shareQuota = share_quota;
    config_.tenants.push_back(std::move(mix));
    return *this;
}

ServeSession &
ServeSession::requests(std::uint64_t count)
{
    config_.numRequests = count;
    return *this;
}

ServeSession &
ServeSession::meanInterarrival(double cycles)
{
    config_.meanInterarrivalCycles = cycles;
    return *this;
}

ServeSession &
ServeSession::seed(std::uint64_t seed)
{
    config_.seed = seed;
    return *this;
}

ServeSession &
ServeSession::arrival(workload::ArrivalSpec spec)
{
    config_.arrival = std::move(spec);
    return *this;
}

ServeSession &
ServeSession::batching(serve::BatchingSpec spec)
{
    config_.batching = std::move(spec);
    return *this;
}

ServeSession &
ServeSession::routing(serve::RoutingSpec spec)
{
    config_.routing = std::move(spec);
    return *this;
}

ServeSession &
ServeSession::stats(serve::StatsSpec spec)
{
    config_.stats = std::move(spec);
    return *this;
}

ServeSession &
ServeSession::control(serve::ControlPlaneSpec spec)
{
    config_.control = std::move(spec);
    return *this;
}

} // namespace hygcn::api
