/**
 * @file
 * String-keyed factories for platforms, datasets, and models, so a
 * scenario ("pyg-gpu on pubmed with gcn") is data, not code. The
 * global registry comes pre-loaded with the built-in platforms
 * ("hygcn", "hygcn-agg", "pyg-cpu", "pyg-cpu-part", "pyg-gpu",
 * "pyg-gpu-part"), the six Table 4 datasets (by abbreviation and
 * full name), and the four Table 5 models.
 *
 * Every kind lives in one FactoryTable: add() a factory under a
 * case-insensitive name, make() an instance by name, has() and
 * names() to inspect. Custom *platforms* are fully pluggable:
 * platforms.add() makes a backend runnable by Session/RunSpec.
 * Custom datasets and models are addressable by name from a RunSpec
 * (RunSpec::datasetName/modelName); the built-in dataset and model
 * names are reserved, so they always mean the Table 4/5 entries.
 *
 * Serving *workloads* (named ServeConfig presets, e.g.
 * "serve-smoke") are first-class scenarios too: workloads.add()
 * makes one runnable via ServeSession::workload(name). Serving
 * *scheduler policies* ("fifo", "edf", "fair-share"), batch *cost
 * models*, routing *objectives*, *arrival processes* ("poisson",
 * "diurnal", "flash-crowd", "mmpp", "heavy-tail", "trace",
 * "correlated") and control-plane *scaling policies* ("static",
 * "queue-depth", "slo-burn", "scheduled") plug in the same way.
 */

#ifndef HYGCN_API_REGISTRY_HPP
#define HYGCN_API_REGISTRY_HPP

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/platform.hpp"
#include "serve/workload.hpp"

namespace hygcn::serve {
class BatchCostModel;
class RouteObjective;
class ScalingPolicy;
class SchedulerPolicy;
} // namespace hygcn::serve

namespace hygcn::workload {
class ArrivalProcess;
} // namespace hygcn::workload

namespace hygcn::api {

/**
 * Thread-safe, case-insensitive name -> factory map of one kind
 * ("platform", "dataset", ...). Unknown names throw
 * std::out_of_range listing the known keys.
 */
template <class Factory> class FactoryTable
{
  public:
    /** @p kind names the table in errors. The @p reserved entries
     *  are installed under keys add() refuses to replace. */
    explicit FactoryTable(std::string kind,
                          std::map<std::string, Factory> reserved = {});

    /** Register (or replace) @p name; throws std::invalid_argument
     *  on a reserved name. */
    void add(const std::string &name, Factory factory);

    /** Build @p name from @p args. The factory runs outside the
     *  table's lock, so it may call back into the registry. */
    template <class... Args>
    auto
    make(const std::string &name, Args &&...args) const
    {
        return find(name)(std::forward<Args>(args)...);
    }

    bool has(const std::string &name) const;

    /** The registered keys, lowercased and sorted. */
    std::vector<std::string> names() const;

  private:
    /** A copy of @p name's factory, taken under the lock. */
    Factory find(const std::string &name) const;

    std::string kind_;
    std::set<std::string> reserved_;
    mutable std::mutex mutex_;
    std::map<std::string, Factory> factories_;
};

/** The factory tables of the unified API, one per kind. */
class Registry
{
  public:
    using PlatformFactory = std::function<std::unique_ptr<Platform>()>;
    /** Builds a dataset; @p scale <= 0 means default benchmark scale. */
    using DatasetFactory =
        std::function<Dataset(std::uint64_t seed, double scale)>;
    /** Builds a model config for a given input feature length. */
    using ModelFactory =
        std::function<ModelConfig(int feature_len, int num_layers)>;
    /** Builds a named serving workload preset. */
    using WorkloadFactory = std::function<serve::ServeConfig()>;
    /** Builds a scheduling policy for a serving config. */
    using PolicyFactory =
        std::function<std::unique_ptr<serve::SchedulerPolicy>(
            const serve::ServeConfig &)>;
    /** Builds a serving batch cost model. */
    using CostModelFactory =
        std::function<std::unique_ptr<serve::BatchCostModel>()>;
    /** Builds a serving routing objective. */
    using ObjectiveFactory =
        std::function<std::unique_ptr<serve::RouteObjective>()>;
    /** Builds an arrival process for a serving config. */
    using ArrivalProcessFactory =
        std::function<std::unique_ptr<workload::ArrivalProcess>(
            const serve::ServeConfig &)>;
    /** Builds a control-plane autoscaling policy. */
    using ScalingPolicyFactory =
        std::function<std::unique_ptr<serve::ScalingPolicy>(
            const serve::ServeConfig &)>;

    /** Constructs a registry pre-loaded with the built-ins. */
    Registry();

    /** The process-wide registry instance. */
    static Registry &global();

    FactoryTable<PlatformFactory> platforms{"platform"};
    /** Built-in dataset names and abbreviations are reserved. */
    FactoryTable<DatasetFactory> datasets;
    /** Built-in model names are reserved. */
    FactoryTable<ModelFactory> models;
    FactoryTable<WorkloadFactory> workloads{"workload"};
    FactoryTable<PolicyFactory> policies{"policy"};
    FactoryTable<CostModelFactory> costModels{"cost model"};
    FactoryTable<ObjectiveFactory> objectives{"routing objective"};
    FactoryTable<ArrivalProcessFactory> arrivalProcesses{"arrival process"};
    FactoryTable<ScalingPolicyFactory> scalingPolicies{"scaling policy"};

    /** Resolve a built-in dataset name/abbreviation to its id;
     *  throws std::out_of_range on unknown names. */
    DatasetId datasetId(const std::string &name) const;

    /** Resolve a built-in model name to its id; throws
     *  std::out_of_range on unknown names. */
    ModelId modelId(const std::string &name) const;

  private:
    // Built once by the constructor and never changed: no lock.
    const std::map<std::string, DatasetId> datasetIds_;
    const std::map<std::string, ModelId> modelIds_;
};

} // namespace hygcn::api

#endif // HYGCN_API_REGISTRY_HPP
