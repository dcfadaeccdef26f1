#include "exp/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gecko::exp {

namespace {

/** Staged worker count for the global pool (0 = not staged). */
std::atomic<int> g_globalThreads{0};

/** Set while this thread runs the bodies of a fanned-out loop. */
thread_local bool t_inLoop = false;

}  // namespace

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

void
parallelFor(const ThreadPool& pool, std::size_t n,
            const std::function<bool(std::size_t)>& body)
{
    const std::size_t width =
        std::min(static_cast<std::size_t>(pool.threadCount()), n);
    if (width <= 1 || t_inLoop) {
        for (std::size_t i = 0; i < n; ++i)
            if (!body(i))
                return;
        return;
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> stop{false};
    std::mutex errorMutex;
    std::exception_ptr error;
    const auto fail = [&] {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!error)
            error = std::current_exception();
    };
    const auto claim = [&] {
        t_inLoop = true;
        try {
            while (!stop) {
                const std::size_t i = cursor++;
                if (i >= n || !body(i))
                    break;
            }
        } catch (...) {
            fail();
        }
        stop = true;
        t_inLoop = false;
    };

    std::vector<std::thread> helpers;
    helpers.reserve(width - 1);
    try {
        while (helpers.size() + 1 < width)
            helpers.emplace_back(claim);
    } catch (...) {
        fail();
        stop = true;
    }
    claim();
    for (std::thread& helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
}

}  // namespace gecko::exp
