#ifndef GECKO_EXP_THREAD_POOL_HPP_
#define GECKO_EXP_THREAD_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/**
 * @file
 * Work-stealing thread pool for the experiment engine.
 *
 * Every attacked-victim run of a sweep is independent, so the figure
 * and table benches are embarrassingly parallel.  The pool keeps one
 * task deque per worker: submissions are distributed round-robin, a
 * worker drains its own deque from the front and steals from the back
 * of a victim's deque when it runs dry.  Deques are mutex-guarded (the
 * tasks are whole simulator runs, microseconds to seconds each, so
 * queue overhead is irrelevant and the simple locking stays clean
 * under ThreadSanitizer).
 *
 * The pool size is `GECKO_THREADS` (environment) when set, else the
 * hardware concurrency; benches additionally accept a `--threads=N`
 * override (see bench_util).  A pool of one thread is the degenerate
 * serial case: exp::parallelMap then runs entirely on the caller.
 */

namespace gecko::exp {

/** Work-stealing pool of worker threads executing submitted tasks. */
class ThreadPool
{
  public:
    /// Largest worker count GECKO_THREADS or --threads may ask for.
    static constexpr int kMaxThreads = 1024;

    /**
     * @param threads worker count; <= 0 means defaultThreads().
     */
    explicit ThreadPool(int threads = 0);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    int threadCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /** Enqueue a task (round-robin over the worker deques). */
    void submit(std::function<void()> task);

    /**
     * Steal and execute one queued task on the calling thread.
     * Used by parallelMap so the submitting thread works too instead
     * of blocking idle.
     * @return true if a task was executed.
     */
    bool tryRunOne();

    /**
     * Resolve the configured parallelism from a `GECKO_THREADS` value,
     * read whole: 1..kMaxThreads; null or empty (unset) means
     * std::thread::hardware_concurrency (>= 1).
     * @throws std::invalid_argument naming the variable otherwise.
     */
    static int
    defaultThreads(const char* value = std::getenv("GECKO_THREADS"));

    /**
     * Process-wide pool shared by the bench harnesses.  Created on
     * first use with setGlobalThreads()'s value if one was staged,
     * else defaultThreads().
     */
    static ThreadPool& global();

    /**
     * Stage the worker count for the global pool (CLI override).  Must
     * be called before the first global() use to take effect.
     */
    static void setGlobalThreads(int threads);

  private:
    struct WorkerQueue {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(std::size_t self);
    bool popTask(std::size_t preferred, std::function<void()>* out);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;
    std::mutex idleMutex_;
    std::condition_variable idleCv_;
    std::atomic<std::size_t> queued_{0};
    std::atomic<std::size_t> nextQueue_{0};
    std::atomic<bool> stop_{false};
};

}  // namespace gecko::exp

#endif  // GECKO_EXP_THREAD_POOL_HPP_
