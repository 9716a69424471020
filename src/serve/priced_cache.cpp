#include "serve/priced_cache.hpp"

#include "api/registry.hpp"
#include "serve/cost_model.hpp"
#include "sim/json.hpp"

namespace hygcn::serve {

void
PricedScenarioCache::rejectUnresolvable(const std::string &platform,
                                        const api::RunSpec &spec) const
{
    // batchCopies == 0 must fail before a slot exists: its JSON form
    // would alias the default batchCopies == 1 key (emitted only off
    // 1) and poison that slot with a cached error for the valid spec.
    if (spec.batchCopies == 0)
        throw std::invalid_argument("serve: batchCopies must be >= 1");
    // Failures that depend on mutable registry state — unknown
    // platform keys or not-yet-registered custom dataset/model
    // names — fail fast before a slot exists, so registering the
    // name later makes the same price() call succeed. Only failures
    // deterministic in the spec itself ever reach a slot. An
    // injected platform resolves names its own way.
    if (bound_ != nullptr)
        return;
    const api::Registry &registry = api::Registry::global();
    if (!registry.platforms.has(platform))
        registry.platforms.make(platform); // throws
    if (!spec.datasetName.empty() && !registry.datasets.has(spec.datasetName))
        registry.datasets.make(spec.datasetName, 1, 0.0); // throws
    if (!spec.modelName.empty() && !registry.models.has(spec.modelName))
        registry.models.make(spec.modelName, 1, 2); // throws
}

std::shared_ptr<PricedScenarioCache::Entry>
PricedScenarioCache::slot(const std::string &key, Lookups *lookups)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    const bool hit = it != cache_.end();
    if (!hit)
        it = cache_.emplace(key, std::make_shared<Entry>()).first;
    ++(hit ? hits_ : misses_);
    if (lookups != nullptr)
        ++(hit ? lookups->hits : lookups->misses);
    return it->second;
}

PricedScenarioCache::Priced
PricedScenarioCache::price(const std::string &platform,
                           const api::RunSpec &spec, Lookups *lookups)
{
    // The spec JSON echoes every pricing-relevant field (platform,
    // dataset/model/seeds/scale, the full accelerator config, varied
    // parameters, co-batch copies), so it doubles as an exact,
    // human-debuggable key.
    api::RunSpec keyed = spec;
    keyed.platform = platform;
    const std::string key = toJson(keyed);

    rejectUnresolvable(platform, keyed);

    std::shared_ptr<Entry> entry = slot(key, lookups);
    std::call_once(entry->once, [&] {
        try {
            const api::RunResult run =
                bound_ != nullptr
                    ? bound_->run(keyed)
                    : api::Registry::global().platforms.make(platform)->run(
                          keyed);
            entry->value.cyclesByBatch = {run.report.cycles};
            entry->value.joulesByBatch = {run.report.joules()};
            entry->value.clockHz = run.report.clockHz;
            entry->value.weightLoadCycles =
                run.report.stats.get(Counter::CombWeightLoadCycles);
            entry->value.weightLoadJoules =
                run.report.weightLoadJoules();
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

PricedScenarioCache::Priced
PricedScenarioCache::priceCurve(const std::string &platform,
                                const api::RunSpec &spec,
                                const ServeConfig &config, Lookups *lookups)
{
    api::RunSpec keyed = spec;
    keyed.platform = platform;

    // Resolve the model before the slot: an unknown cost-model name
    // is registry state, and must stay retryable after registration.
    const std::unique_ptr<BatchCostModel> model =
        api::Registry::global().costModels.make(config.batching.costModel);
    rejectUnresolvable(platform, keyed);

    std::string key = toJson(keyed);
    key += "\n#cost_model=" + model->name();
    const std::string extra = model->priceKey(config);
    if (!extra.empty())
        key += "#" + extra;
    key += "#max_batch=" + std::to_string(config.batching.maxBatch);

    std::shared_ptr<Entry> entry = slot(key, lookups);
    std::call_once(entry->once, [&] {
        try {
            // The unit run is a shared unit entry, so every cost
            // model (and every maxBatch) of the same scenario prices
            // it exactly once. Nested price() calls are safe: the
            // map mutex is never held while a slot fills, and unit
            // slots never price curves.
            const Priced unit = price(platform, keyed, lookups);
            CostModelInputs in;
            in.unitCycles = unit.unitCycles();
            in.weightLoadCycles = unit.weightLoadCycles;
            in.unitJoules = unit.unitJoules();
            in.weightLoadJoules = unit.weightLoadJoules;
            in.maxBatch = config.batching.maxBatch;
            in.marginalFraction = config.batching.marginalFraction;
            in.measuredCycles = [&](std::uint32_t copies) {
                api::RunSpec batched = keyed;
                batched.batchCopies = copies;
                return price(platform, batched, lookups).unitCycles();
            };
            // Shares the memoized co-batch unit entry with
            // measuredCycles: asking for both costs one run.
            in.measuredJoules = [&](std::uint32_t copies) {
                api::RunSpec batched = keyed;
                batched.batchCopies = copies;
                return price(platform, batched, lookups).unitJoules();
            };
            entry->value.cyclesByBatch = model->curve(in);
            entry->value.joulesByBatch = model->energyCurve(in);
            entry->value.clockHz = unit.clockHz;
            entry->value.weightLoadCycles = unit.weightLoadCycles;
            entry->value.weightLoadJoules = unit.weightLoadJoules;
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

std::size_t
PricedScenarioCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

std::uint64_t
PricedScenarioCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
PricedScenarioCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

void
PricedScenarioCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
    hits_ = 0;
    misses_ = 0;
}

PricedScenarioCache &
PricedScenarioCache::global()
{
    static PricedScenarioCache cache;
    return cache;
}

} // namespace hygcn::serve
