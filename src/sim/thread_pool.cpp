#include "sim/thread_pool.hpp"

#include <algorithm>

namespace hygcn {

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    jobCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

std::size_t
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::runChunks(const ChunkFn &fn, std::size_t n, std::size_t chunk)
{
    for (;;) {
        const std::size_t begin = next_.fetch_add(chunk);
        if (begin >= n)
            return;
        try {
            fn(begin, std::min(begin + chunk, n));
        } catch (...) {
            next_.store(n); // nobody claims another chunk
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
            return;
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    // Generations start at 1, so a worker spawned while its first job
    // is being posted still joins it.
    std::uint64_t seen = 0;
    for (;;) {
        jobCv_.wait(lock, [&] {
            return stop_ || (slots_ > 0 && generation_ != seen);
        });
        if (stop_)
            return;
        seen = generation_;
        --slots_;
        ++active_;
        const ChunkFn &fn = *fn_;
        const std::size_t n = n_;
        const std::size_t chunk = chunk_;
        lock.unlock();
        runChunks(fn, n, chunk);
        lock.lock();
        if (--active_ == 0)
            doneCv_.notify_one();
    }
}

void
ThreadPool::parallelFor(unsigned threads, std::size_t n, std::size_t chunk,
                        const ChunkFn &fn)
{
    if (n == 0)
        return;
    chunk = std::max<std::size_t>(chunk, 1);
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    const std::size_t chunks = (n - 1) / chunk + 1;
    const std::size_t width =
        std::min<std::size_t>({threads, chunks, kMaxThreads});
    // An atomic flag, not a mutex: a nested call may come from the
    // very thread that set it.
    if (width <= 1 || busy_.exchange(true)) {
        fn(0, n);
        return;
    }
    struct Release
    {
        std::atomic<bool> &busy;
        ~Release() { busy.store(false); }
    } release{busy_}; // also if spawning a worker throws
    const std::size_t helpers = width - 1;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        while (workers_.size() < helpers)
            workers_.emplace_back([this] { workerLoop(); });
        fn_ = &fn;
        n_ = n;
        chunk_ = chunk;
        next_.store(0);
        slots_ = helpers;
        ++generation_;
    }
    for (std::size_t i = 0; i < helpers; ++i)
        jobCv_.notify_one();

    runChunks(fn, n, chunk);

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] { return active_ == 0; });
        slots_ = 0;
        fn_ = nullptr;
        std::swap(error, error_);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace hygcn
