/**
 * @file
 * Fluent entry point of the unified API. A Session describes a
 * parameter sweep — a base RunSpec plus the cartesian product of
 * platforms x datasets x models x varied parameters — and executes
 * the expansion on the process's ThreadPool (sim/thread_pool.hpp)
 * over the shared thread-safe dataset cache:
 *
 *   auto results = Session()
 *                      .platform("hygcn")
 *                      .model(ModelId::GCN)
 *                      .datasets({DatasetId::CR, DatasetId::PB})
 *                      .vary("aggBufBytes", {2 << 20, 16 << 20})
 *                      .runAll();
 *
 * Results come back in expansion order regardless of the worker
 * count, and every run is deterministic in its spec, so a parallel
 * sweep serializes to exactly the same JSON as a sequential one.
 */

#ifndef HYGCN_API_SESSION_HPP
#define HYGCN_API_SESSION_HPP

#include <string>
#include <utility>
#include <vector>

#include "api/platform.hpp"

namespace hygcn::api {

/** Fluent builder + parallel executor over the Registry platforms. */
class Session
{
  public:
    // ---- sweep axes (unset axes keep the base spec's value) -----
    Session &platform(const std::string &name);
    Session &platforms(std::vector<std::string> names);
    Session &dataset(DatasetId id);
    /** Accepts registry dataset names ("cora", "pb", ...). */
    Session &dataset(const std::string &name);
    Session &datasets(std::vector<DatasetId> ids);
    Session &model(ModelId id);
    Session &model(const std::string &name);
    Session &models(std::vector<ModelId> ids);

    /** Add a sweep axis: one run per value of applyParam key. */
    Session &vary(const std::string &key, std::vector<double> values);

    // ---- base-spec knobs ---------------------------------------
    Session &numLayers(int k);
    Session &seed(std::uint64_t seed);
    Session &datasetScale(double scale);
    Session &functional(bool on = true);
    Session &withReadout(bool on = true);
    Session &collectTrace(bool on = true);
    Session &sampleFactor(std::uint32_t factor);
    Session &config(const HyGCNConfig &config);

    /**
     * Kernel threads for functional-mode runs (RunSpec::threads):
     * > 0 exact, 0 = auto via HYGCN_THREADS. Distinct from threads(),
     * which sizes runAll. The kernels run on the same ThreadPool as
     * runAll, so inside a multi-threaded runAll they run inline on
     * each run's thread. Functional outputs are byte-identical at any
     * setting.
     */
    Session &kernelThreads(int count);

    /**
     * Threads runAll asks the ThreadPool for (0 = hardware
     * concurrency; at most ThreadPool::kMaxThreads, never more than
     * there are runs). If the pool is busy with another job, such as
     * a concurrent sweep, the whole sweep runs inline on the calling
     * thread instead.
     */
    Session &threads(unsigned count);

    /**
     * Concrete specs this session would run: the cartesian product
     * in deterministic declaration order (platforms outermost, then
     * datasets, models, and each vary() axis innermost).
     */
    std::vector<RunSpec> expand() const;

    /**
     * Execute every expanded spec on the ThreadPool. Results are in
     * expansion order. The first run that throws (e.g. an invalid
     * config failing fast) stops further runs from starting, and its
     * exception is rethrown once the runs in flight have finished.
     */
    std::vector<RunResult> runAll() const;

    /** Run a sweep that expands to exactly one spec (throws
     *  std::logic_error otherwise). */
    RunResult runOne() const;

    /** Convenience: runOne().report. */
    SimReport report() const { return runOne().report; }

  private:
    RunSpec base_;
    std::vector<std::string> platforms_;
    std::vector<DatasetId> datasets_;
    std::vector<ModelId> models_;
    std::vector<std::pair<std::string, std::vector<double>>> varies_;
    unsigned threads_ = 0;
};

} // namespace hygcn::api

#endif // HYGCN_API_SESSION_HPP
