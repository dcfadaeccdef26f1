#ifndef GECKO_EXP_THREAD_POOL_HPP_
#define GECKO_EXP_THREAD_POOL_HPP_

#include <cstddef>
#include <cstdlib>
#include <functional>

/**
 * @file
 * Parallel index loops for the experiment engine.
 *
 * Every attacked-victim run of a sweep is independent, so the figure
 * and table benches are embarrassingly parallel.  exp::parallelFor is
 * the one claim loop behind every fan-out: the caller and up to
 * `width - 1` helper threads, started for the loop and joined before
 * it returns, take indices from one atomic cursor.  The tasks are
 * whole simulator runs, microseconds to seconds each, so one claim per
 * index costs nothing measurable, and no thread outlives its loop.
 *
 * The width is `GECKO_THREADS` (environment) when set, else the
 * hardware concurrency; benches additionally accept a `--threads=N`
 * override (see bench_util).  A width of one is the serial case: the
 * loop runs entirely on the caller and starts no thread.
 */

namespace gecko::exp {

/** The width of the parallel loops run on it: a thread count. */
class ThreadPool
{
  public:
    /// Largest worker count GECKO_THREADS or --threads may ask for.
    static constexpr int kMaxThreads = 1024;

    /**
     * @param threads worker count; <= 0 means defaultThreads().
     */
    explicit ThreadPool(int threads = 0)
        : width_(threads > 0 ? threads : defaultThreads())
    {
    }

    /** Threads a loop on this pool may run at once, the caller's one. */
    int threadCount() const { return width_; }

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
    int width_;
};

/**
 * Run `body(i)` for every i in [0, n), on the caller and
 * `min(width, n) - 1` helper threads that claim indices from one
 * atomic cursor; every helper is joined before the call returns, and
 * helpers inherit the caller's signal mask.
 *
 * The first exception a body throws, or a body that returns false,
 * stops every thread from claiming another index (bodies already
 * running finish); the exception is rethrown on the caller after the
 * join, as is a failure to start a helper.  A loop called while this
 * thread runs a body of another parallel loop runs inline, so a
 * process never runs more threads than the outer width.  A loop that
 * runs inline only because `n <= 1` or the width is 1 does not count
 * as running: loops its body starts still fan out.
 */
void parallelFor(const ThreadPool& pool, std::size_t n,
                 const std::function<bool(std::size_t)>& body);

}  // namespace gecko::exp

#endif  // GECKO_EXP_THREAD_POOL_HPP_
