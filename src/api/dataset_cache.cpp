#include "api/dataset_cache.hpp"

#include "api/registry.hpp"

namespace hygcn::api {

const Dataset &
DatasetCache::get(DatasetId id, double scale, std::uint64_t seed)
{
    const double norm_scale = scale <= 0.0 ? 0.0 : scale;
    const Key key{std::string(), static_cast<int>(id), norm_scale, seed,
                  1};

    // The map mutex only guards slot lookup/creation; generation
    // itself runs under the slot's once_flag so workers needing a
    // *different* dataset are never blocked behind a slow build
    // (Reddit takes seconds), while first-touch of the *same*
    // dataset still constructs exactly one copy.
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_.emplace(key, std::make_shared<Entry>()).first;
        entry = it->second;
    }
    std::call_once(entry->once, [&] {
        entry->data = std::make_unique<Dataset>(
            norm_scale == 0.0 ? makeDatasetScaledDefault(id, seed)
                              : makeDataset(id, seed, norm_scale));
    });
    return *entry->data;
}

const Dataset &
DatasetCache::get(const std::string &name, double scale,
                  std::uint64_t seed)
{
    // Resolve unknown names before touching the slot: an exception
    // escaping a call_once leaves the once_flag wedged under some
    // pthread_once interceptors (tsan), deadlocking the next caller.
    // This also keeps a get() before datasets.add() retryable.
    if (!Registry::global().datasets.has(name))
        Registry::global().datasets.make(name, seed, scale); // throws

    const double norm_scale = scale <= 0.0 ? 0.0 : scale;
    // Sentinel id -1: DatasetId values are >= 0, so a named entry can
    // never alias a built-in slot, whatever the name.
    const Key key{name, -1, norm_scale, seed, 1};

    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_.emplace(key, std::make_shared<Entry>()).first;
        entry = it->second;
    }
    // The registry factory (which may be a built-in alias or a
    // registered custom generator) runs under the slot's once_flag,
    // same as the id path: concurrent first-touches of different
    // names never serialize, while each name builds exactly once.
    std::call_once(entry->once, [&] {
        entry->data = std::make_unique<Dataset>(
            Registry::global().datasets.make(name, seed, norm_scale));
    });
    return *entry->data;
}

const Dataset &
DatasetCache::getBatched(const std::string &name, DatasetId id,
                         double scale, std::uint64_t seed,
                         std::uint32_t copies)
{
    // The base dataset resolves (and caches) first — this also
    // surfaces unknown-name errors before any batched slot exists.
    const Dataset &base = name.empty() ? get(id, scale, seed)
                                       : get(name, scale, seed);
    if (copies <= 1)
        return base;
    // Fail fast before a slot exists: replicateDataset rejects
    // replicated vertex counts that overflow VertexId, and that
    // throw must not escape the call_once below (wedged once_flag;
    // see the name-resolution comment in get()).
    replicableOrThrow(base, copies);

    const double norm_scale = scale <= 0.0 ? 0.0 : scale;
    const Key key{name, name.empty() ? static_cast<int>(id) : -1,
                  norm_scale, seed, copies};

    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_.emplace(key, std::make_shared<Entry>()).first;
        entry = it->second;
    }
    // Replication reads the already-built base, so a concurrent
    // first touch of a different copy count never rebuilds it.
    std::call_once(entry->once, [&] {
        entry->data =
            std::make_unique<Dataset>(replicateDataset(base, copies));
    });
    return *entry->data;
}

void
DatasetCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
}

std::size_t
DatasetCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

DatasetCache &
DatasetCache::global()
{
    static DatasetCache cache;
    return cache;
}

} // namespace hygcn::api
