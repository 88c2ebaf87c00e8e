/**
 * @file
 * A fixed-size worker pool for CPU-bound simulation jobs.
 *
 * Tasks are submitted as callables and their results retrieved through
 * std::future, so exceptions thrown inside a task propagate to whoever
 * calls get(). The pool is deliberately minimal: no priorities, no work
 * stealing — simulation jobs are long and uniform enough that a single
 * locked queue is nowhere near contention.
 */

#ifndef P5SIM_COMMON_THREAD_POOL_HH
#define P5SIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace p5 {

/** Fixed set of worker threads consuming a shared task queue. */
class ThreadPool
{
  public:
    /**
     * @param workers number of worker threads; 0 selects
     *        defaultWorkers() (the hardware concurrency).
     */
    explicit ThreadPool(unsigned workers = 0);

    /** Joins all workers; queued-but-unstarted tasks still run first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p fn and return a future for its result. An exception
     * escaping @p fn is captured and rethrown from future::get().
     */
    template <typename Fn>
    std::future<std::invoke_result_t<Fn>>
    submit(Fn &&fn)
    {
        using Result = std::invoke_result_t<Fn>;
        // The task counts itself finished before the packaged_task
        // makes its future ready (the guard dies as fn returns or
        // throws), so pending() is 0 once every future has been got.
        auto task = std::make_shared<std::packaged_task<Result()>>(
            [this, fn = std::forward<Fn>(fn)]() mutable -> Result {
                const FinishGuard finished{this};
                return fn();
            });
        std::future<Result> future = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace([task] { (*task)(); });
        }
        cv_.notify_one();
        return future;
    }

    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

    /** Tasks submitted but not yet finished. */
    std::size_t pending() const;

    /** max(1, std::thread::hardware_concurrency()). */
    static unsigned defaultWorkers();

  private:
    /** Marks the running task finished when it goes out of scope. */
    struct FinishGuard
    {
        ThreadPool *pool;
        ~FinishGuard() { pool->finishTask(); }
    };

    void workerLoop();
    void finishTask();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    std::size_t inFlight_ = 0;
    bool stop_ = false;
};

} // namespace p5

#endif // P5SIM_COMMON_THREAD_POOL_HH
