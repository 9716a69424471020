#include "api/registry.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "serve/control_plane.hpp"
#include "serve/cost_model.hpp"
#include "serve/policy.hpp"
#include "serve/route_objective.hpp"
#include "workload/arrival_process.hpp"
#include "workload/trace.hpp"

namespace hygcn::api {

/** Defined in platforms.cpp. */
void registerBuiltinPlatforms(Registry &registry);

/** Defined in workloads.cpp. */
void registerBuiltinWorkloads(Registry &registry);

namespace {

std::string
lower(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
}

template <class Map>
std::vector<std::string>
keysOf(const Map &map)
{
    std::vector<std::string> names;
    names.reserve(map.size());
    for (const auto &[name, value] : map)
        names.push_back(name);
    return names;
}

/** @p map's entry for @p name, case-insensitively; throws
 *  std::out_of_range with the known keys listed if there is none. */
template <class Map>
const typename Map::mapped_type &
lookup(const Map &map, const std::string &kind, const std::string &name)
{
    auto it = map.find(lower(name));
    if (it == map.end()) {
        std::string msg =
            "api: unknown " + kind + " \"" + name + "\"; known: ";
        const std::vector<std::string> known = keysOf(map);
        for (std::size_t i = 0; i < known.size(); ++i)
            msg += (i ? ", " : "") + known[i];
        throw std::out_of_range(msg);
    }
    return it->second;
}

std::map<std::string, DatasetId>
builtinDatasetIds()
{
    std::map<std::string, DatasetId> ids;
    for (DatasetId id : allDatasets()) {
        ids[lower(datasetAbbrev(id))] = id;
        ids[lower(datasetName(id))] = id;
    }
    return ids;
}

std::map<std::string, ModelId>
builtinModelIds()
{
    std::map<std::string, ModelId> ids;
    for (ModelId id : allModels())
        ids[lower(modelAbbrev(id))] = id;
    return ids;
}

std::map<std::string, Registry::DatasetFactory>
builtinDatasets()
{
    std::map<std::string, Registry::DatasetFactory> factories;
    for (const auto &[key, id] : builtinDatasetIds())
        factories[key] = [id](std::uint64_t seed, double scale) {
            return scale <= 0.0 ? makeDatasetScaledDefault(id, seed)
                                : ::hygcn::makeDataset(id, seed, scale);
        };
    return factories;
}

std::map<std::string, Registry::ModelFactory>
builtinModels()
{
    std::map<std::string, Registry::ModelFactory> factories;
    for (const auto &[key, id] : builtinModelIds())
        factories[key] = [id](int feature_len, int num_layers) {
            return ::hygcn::makeModel(id, feature_len, num_layers);
        };
    return factories;
}

} // namespace

// ---- FactoryTable --------------------------------------------------

template <class Factory>
FactoryTable<Factory>::FactoryTable(std::string kind,
                                    std::map<std::string, Factory> reserved)
    : kind_(std::move(kind))
{
    for (auto &[name, factory] : reserved) {
        reserved_.insert(lower(name));
        factories_[lower(name)] = std::move(factory);
    }
}

template <class Factory>
void
FactoryTable<Factory>::add(const std::string &name, Factory factory)
{
    const std::string key = lower(name);
    if (reserved_.count(key) > 0)
        throw std::invalid_argument("api: " + kind_ + " \"" + name +
                                    "\" is built in and cannot be "
                                    "replaced");
    std::lock_guard<std::mutex> lock(mutex_);
    factories_[key] = std::move(factory);
}

template <class Factory>
Factory
FactoryTable<Factory>::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lookup(factories_, kind_, name);
}

template <class Factory>
bool
FactoryTable<Factory>::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(lower(name)) > 0;
}

template <class Factory>
std::vector<std::string>
FactoryTable<Factory>::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return keysOf(factories_);
}

template class FactoryTable<Registry::PlatformFactory>;
template class FactoryTable<Registry::DatasetFactory>;
template class FactoryTable<Registry::ModelFactory>;
template class FactoryTable<Registry::WorkloadFactory>;
template class FactoryTable<Registry::PolicyFactory>;
template class FactoryTable<Registry::CostModelFactory>;
template class FactoryTable<Registry::ObjectiveFactory>;
template class FactoryTable<Registry::ArrivalProcessFactory>;
template class FactoryTable<Registry::ScalingPolicyFactory>;

// ---- Registry ------------------------------------------------------

Registry::Registry()
    : datasets("dataset", builtinDatasets()), models("model", builtinModels()),
      datasetIds_(builtinDatasetIds()), modelIds_(builtinModelIds())
{
    registerBuiltinPlatforms(*this);
    registerBuiltinWorkloads(*this);

    policies.add("fifo", [](const serve::ServeConfig &config) {
        return std::make_unique<serve::FifoPolicy>(config);
    });
    policies.add("edf", [](const serve::ServeConfig &config) {
        return std::make_unique<serve::EdfPolicy>(config);
    });
    policies.add("fair-share", [](const serve::ServeConfig &config) {
        return std::make_unique<serve::FairSharePolicy>(config);
    });

    costModels.add("marginal", [] {
        return std::make_unique<serve::MarginalCostModel>();
    });
    costModels.add("analytic", [] {
        return std::make_unique<serve::AnalyticCostModel>();
    });
    costModels.add("measured", [] {
        return std::make_unique<serve::MeasuredCostModel>();
    });

    objectives.add("cycles",
                   [] { return std::make_unique<serve::CyclesObjective>(); });
    objectives.add("energy",
                   [] { return std::make_unique<serve::EnergyObjective>(); });
    objectives.add("edp",
                   [] { return std::make_unique<serve::EdpObjective>(); });

    arrivalProcesses.add("poisson", [](const serve::ServeConfig &config) {
        return std::make_unique<workload::PoissonProcess>(config);
    });
    arrivalProcesses.add("diurnal", [](const serve::ServeConfig &config) {
        return std::make_unique<workload::DiurnalProcess>(config);
    });
    arrivalProcesses.add("flash-crowd", [](const serve::ServeConfig &config) {
        return std::make_unique<workload::FlashCrowdProcess>(config);
    });
    arrivalProcesses.add("mmpp", [](const serve::ServeConfig &config) {
        return std::make_unique<workload::MmppProcess>(config);
    });
    arrivalProcesses.add("heavy-tail", [](const serve::ServeConfig &config) {
        return std::make_unique<workload::HeavyTailProcess>(config);
    });
    arrivalProcesses.add("trace", [](const serve::ServeConfig &config) {
        return std::make_unique<workload::TraceArrivalProcess>(config);
    });
    arrivalProcesses.add("correlated", [](const serve::ServeConfig &config) {
        return std::make_unique<workload::CorrelatedProcess>(config);
    });

    scalingPolicies.add("static", [](const serve::ServeConfig &config) {
        return std::make_unique<serve::StaticScaling>(config);
    });
    scalingPolicies.add("queue-depth", [](const serve::ServeConfig &config) {
        return std::make_unique<serve::QueueDepthScaling>(config);
    });
    scalingPolicies.add("slo-burn", [](const serve::ServeConfig &config) {
        return std::make_unique<serve::SloBurnScaling>(config);
    });
    scalingPolicies.add("scheduled", [](const serve::ServeConfig &config) {
        return std::make_unique<serve::ScheduledScaling>(config);
    });
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

DatasetId
Registry::datasetId(const std::string &name) const
{
    return lookup(datasetIds_, "dataset", name);
}

ModelId
Registry::modelId(const std::string &name) const
{
    return lookup(modelIds_, "model", name);
}

} // namespace hygcn::api
