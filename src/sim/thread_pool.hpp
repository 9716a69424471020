/**
 * @file
 * The process's one thread pool. The functional kernels split matrix
 * rows over it, and every sweep (Session::runAll, ServeSweep::runAll,
 * bench/paper_figures) runs its independent runs on it, so kernels
 * called from inside a sweep share the sweep's cores instead of
 * oversubscribing them. Workers persist and park on a condition
 * variable between jobs. A job hands out chunks through an atomic
 * index, so uneven chunk costs (power-law vertex degrees, runs of
 * different sizes) self-balance, and posting one costs a lock and a
 * notify, cheap enough for the accelerator's many small windows.
 */

#ifndef HYGCN_SIM_THREAD_POOL_HPP
#define HYGCN_SIM_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hygcn {

/**
 * A pool of parked workers running chunked parallel-for jobs, one job
 * at a time. Workers are spawned on demand, kept across jobs and
 * joined on destruction.
 *
 * A parallelFor that finds the pool busy runs its whole range inline
 * on the calling thread. That covers a call nested inside a running
 * job, from its caller or from a worker, and a call from an unrelated
 * thread: two concurrent sweeps share the cores the first one claimed
 * rather than each starting threads of its own. Results never depend
 * on which path ran; only the wall time does.
 */
class ThreadPool
{
  public:
    /** Most threads one job runs on, the calling thread included. */
    static constexpr unsigned kMaxThreads = 64;

    using ChunkFn = std::function<void(std::size_t, std::size_t)>;

    ThreadPool() = default;
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Process [0, n) as half-open chunks [begin, end) of at most
     * @p chunk items on @p threads threads (0 = hardware
     * concurrency): the caller plus up to threads-1 workers, never
     * more than there are chunks or kMaxThreads. @p fn must only
     * write state disjoint between chunks.
     *
     * One thread, a single chunk or a busy pool runs fn(0, n) inline
     * with no locking, and its exception propagates as it is thrown.
     * Otherwise the first exception stops further claims and is
     * rethrown here once every participant has stopped; the pool
     * stays usable.
     */
    void parallelFor(unsigned threads, std::size_t n, std::size_t chunk,
                     const ChunkFn &fn);

    /** Workers spawned so far (grows on demand, never shrinks). */
    std::size_t workerCount() const;

    /** The process-wide pool the kernels and the sweeps share. */
    static ThreadPool &global();

  private:
    void workerLoop();
    void runChunks(const ChunkFn &fn, std::size_t n, std::size_t chunk);

    std::atomic<bool> busy_{false};    ///< a job is running
    std::atomic<std::size_t> next_{0}; ///< next unclaimed chunk start

    mutable std::mutex mutex_;       ///< guards everything below
    std::condition_variable jobCv_;  ///< workers wait for a job
    std::condition_variable doneCv_; ///< the caller waits for drain
    const ChunkFn *fn_ = nullptr;
    std::size_t n_ = 0;
    std::size_t chunk_ = 1;
    std::uint64_t generation_ = 0; ///< bumped per job
    std::size_t slots_ = 0;        ///< workers that may still join
    std::size_t active_ = 0;       ///< workers inside the job
    std::exception_ptr error_;     ///< the job's first exception
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace hygcn

#endif // HYGCN_SIM_THREAD_POOL_HPP
