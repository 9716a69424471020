/**
 * @file
 * Thread-safe, process-wide dataset cache. Synthetic benchmark
 * datasets are expensive to generate (Reddit takes seconds), so
 * every consumer — bench harnesses, parallel sweeps, tests — shares
 * one cache keyed by (dataset, scale, seed); registered custom
 * datasets cache by registry name. References returned by get() stay
 * valid for the lifetime of the cache.
 */

#ifndef HYGCN_API_DATASET_CACHE_HPP
#define HYGCN_API_DATASET_CACHE_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "graph/dataset.hpp"

namespace hygcn::api {

/** Mutex-guarded lazy dataset store. */
class DatasetCache
{
  public:
    /**
     * Dataset @p id at @p scale (<= 0 selects the default
     * benchmarking scale) generated with @p seed, constructing and
     * caching it on first touch. Safe to call concurrently; the
     * returned reference remains valid until clear().
     */
    const Dataset &get(DatasetId id, double scale = 0.0,
                       std::uint64_t seed = 1);

    /**
     * Registered custom dataset @p name (a Registry::datasets
     * key) at @p scale / @p seed, built through the registry factory
     * on first touch. Same lifetime and thread-safety guarantees as
     * the id overload. Throws std::out_of_range on unknown names.
     */
    const Dataset &get(const std::string &name, double scale = 0.0,
                       std::uint64_t seed = 1);

    /**
     * The @p copies-fold disjoint union of a cached base dataset
     * (replicateDataset) — the co-batch form RunSpec::batchCopies
     * selects. Built from the cached base on first touch and cached
     * under its own slot; copies <= 1 is the base itself. @p name
     * empty selects built-in @p id, else the registered custom name.
     */
    const Dataset &getBatched(const std::string &name, DatasetId id,
                              double scale, std::uint64_t seed,
                              std::uint32_t copies);

    /** Drop every cached dataset (invalidates get() references). */
    void clear();

    /** Number of cached datasets. */
    std::size_t size() const;

    /** The process-wide cache instance. */
    static DatasetCache &global();

  private:
    /** Built-in ids key as ("", id, ...); custom names as
     *  (name, -1, ...) — ids are >= 0, so the slots never alias. The
     *  final element is the co-batch copy count (1 = the base). */
    using Key =
        std::tuple<std::string, int, double, std::uint64_t, std::uint32_t>;

    /**
     * One cache slot; built at most once, outside the map mutex.
     * Held by shared_ptr so a clear() racing an in-flight get()
     * cannot destroy a slot another thread is still building.
     */
    struct Entry
    {
        std::once_flag once;
        std::unique_ptr<Dataset> data;
    };

    /** Find or create the slot for @p key, under the map mutex. Every
     *  caller runs its fail-fast checks first, so a throw never escapes
     *  the slot's call_once. */
    std::shared_ptr<Entry> slot(const Key &key);

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<Entry>> cache_;
};

} // namespace hygcn::api

#endif // HYGCN_API_DATASET_CACHE_HPP
