#ifndef GECKO_EXP_PARALLEL_HPP_
#define GECKO_EXP_PARALLEL_HPP_

#include <chrono>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/thread_pool.hpp"

/**
 * @file
 * Deterministic parallel sweep execution.
 *
 * `parallelMap(pool, points, fn)` evaluates `fn` on every point and
 * returns the results *in input order*, regardless of worker count or
 * scheduling: result[i] is always fn(points[i]).  Callers therefore
 * get byte-identical output with `GECKO_THREADS=1` and
 * `GECKO_THREADS=8` as long as `fn` itself is a pure function of its
 * point (each sweep task must own its simulator/rig instances — see
 * DESIGN.md, "The experiment engine").
 *
 * It is parallelFor over the point indices, so a throwing task stops
 * the map and its exception is rethrown on the calling thread after
 * every thread has left, never while a task still writes the results.
 */

namespace gecko::exp {

/**
 * Map `fn` over `items` on `pool`, preserving input order of results.
 *
 * The calling thread takes part in the work.  The result type must be
 * default-constructible and movable.
 *
 * @param taskSeconds optional out: per-task wall time, indexed like
 *                    `items`.
 */
template <class T, class Fn>
auto
parallelMap(ThreadPool& pool, const std::vector<T>& items, Fn fn,
            std::vector<double>* taskSeconds = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, const T&>>
{
    using Clock = std::chrono::steady_clock;
    std::vector<std::invoke_result_t<Fn&, const T&>> results(items.size());
    std::vector<double> times(items.size(), 0.0);
    parallelFor(pool, items.size(), [&](std::size_t i) {
        const auto t0 = Clock::now();
        results[i] = fn(items[i]);
        times[i] = std::chrono::duration<double>(Clock::now() - t0).count();
        return true;
    });
    if (taskSeconds)
        *taskSeconds = std::move(times);
    return results;
}

/** parallelMap on the process-wide pool. */
template <class T, class Fn>
auto
parallelMap(const std::vector<T>& items, Fn fn,
            std::vector<double>* taskSeconds = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, const T&>>
{
    return parallelMap(ThreadPool::global(), items, std::move(fn),
                       taskSeconds);
}

}  // namespace gecko::exp

#endif  // GECKO_EXP_PARALLEL_HPP_
