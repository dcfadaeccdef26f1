#include "exp/thread_pool.hpp"

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gecko::exp {

namespace {

/** Staged worker count for the global pool (0 = not staged). */
std::atomic<int> g_globalThreads{0};

}  // namespace

ThreadPool::ThreadPool(int threads)
{
    int n = threads > 0 ? threads : defaultThreads();
    queues_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back(
            [this, i] { workerLoop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    // Drain: workers only exit once every queue is empty, so pending
    // tasks (which parallelMap callers may be blocked on) still run.
    {
        std::lock_guard<std::mutex> lock(idleMutex_);
        stop_.store(true, std::memory_order_relaxed);
    }
    idleCv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    std::size_t slot = nextQueue_.fetch_add(1, std::memory_order_relaxed) %
                       queues_.size();
    {
        std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
        queues_[slot]->tasks.push_back(std::move(task));
    }
    queued_.fetch_add(1, std::memory_order_release);
    idleCv_.notify_one();
}

bool
ThreadPool::popTask(std::size_t preferred, std::function<void()>* out)
{
    std::size_t n = queues_.size();
    for (std::size_t i = 0; i < n; ++i) {
        WorkerQueue& q = *queues_[(preferred + i) % n];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (q.tasks.empty())
            continue;
        if (i == 0) {
            // Own queue: drain in submission order.
            *out = std::move(q.tasks.front());
            q.tasks.pop_front();
        } else {
            // Steal from the cold end of the victim's deque.
            *out = std::move(q.tasks.back());
            q.tasks.pop_back();
        }
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    // External callers have no own queue; start stealing anywhere.
    std::size_t start = nextQueue_.load(std::memory_order_relaxed) %
                        queues_.size();
    if (!popTask(start, &task))
        return false;
    task();
    return true;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        std::function<void()> task;
        if (popTask(self, &task)) {
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(idleMutex_);
        idleCv_.wait(lock, [this] {
            return stop_.load(std::memory_order_relaxed) ||
                   queued_.load(std::memory_order_acquire) > 0;
        });
        if (stop_.load(std::memory_order_relaxed) &&
            queued_.load(std::memory_order_acquire) == 0)
            return;
    }
}

int
ThreadPool::defaultThreads(const char* value)
{
    if (value == nullptr || *value == '\0') {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw >= 1 ? static_cast<int>(hw) : 1;
    }
    int n = 0;
    const auto [ptr, ec] = std::from_chars(value, value + std::strlen(value), n);
    if (ec != std::errc() || *ptr != '\0' || n < 1 || n > kMaxThreads)
        throw std::invalid_argument(
            std::string("GECKO_THREADS=") + value +
            ": expected a worker count in 1.." + std::to_string(kMaxThreads));
    return n;
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool(g_globalThreads.load(std::memory_order_acquire));
    return pool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    g_globalThreads.store(threads, std::memory_order_release);
}

}  // namespace gecko::exp
