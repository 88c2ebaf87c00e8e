#include "common/thread_pool.hh"

namespace p5 {

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = defaultWorkers();
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

std::size_t
ThreadPool::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size() + inFlight_;
}

unsigned
ThreadPool::defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop();
            ++inFlight_;
        }
        task(); // exceptions are captured by the packaged_task
    }
}

void
ThreadPool::finishTask()
{
    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
}

} // namespace p5
