#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "compiler/compile_cache.hpp"
#include "exp/parallel.hpp"
#include "exp/thread_pool.hpp"

/**
 * @file
 * Tests for the parallel sweep-execution engine: thread-pool ordering
 * and determinism, exception propagation, and the shared compile
 * cache.  exp_test is the suite the TSan build gate runs
 * (`-DGECKO_SANITIZE=thread`).
 */

namespace gecko {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks)
{
    exp::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    while (counter.load() < 100)
        std::this_thread::yield();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, CallerCanStealWork)
{
    exp::ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    // The submitting thread may drain tasks too; either way all run.
    while (counter.load() < 50)
        if (!pool.tryRunOne())
            std::this_thread::yield();
    EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelMapTest, PreservesInputOrdering)
{
    exp::ThreadPool pool(8);
    std::vector<int> items(200);
    for (int i = 0; i < 200; ++i)
        items[i] = i;
    // Early items sleep longest so completion order inverts submission
    // order — results must still land at their input index.
    auto squares = exp::parallelMap(pool, items, [](const int& v) {
        std::this_thread::sleep_for(
            std::chrono::microseconds((200 - v) * 5));
        return v * v;
    });
    ASSERT_EQ(squares.size(), items.size());
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelMapTest, SerialAndParallelResultsIdentical)
{
    // A fig04-style mini-sweep: attack a board over a small frequency
    // grid with 1 worker and with 8, and require identical outcomes —
    // the determinism contract behind `GECKO_THREADS=N` byte-identical
    // stdout.
    auto sweep = [](exp::ThreadPool& pool) {
        auto freqs = bench::attackFrequencyGrid(20e6, 40e6);
        return exp::parallelMap(pool, freqs, [](const double& f) {
            const auto& dev = device::DeviceDb::msp430fr5994();
            bench::VictimConfig vc;
            vc.device = &dev;
            vc.workload = "sensor_loop";
            vc.simSeconds = 0.005;
            attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.5);
            bench::AttackOutcome out = bench::runVictim(vc, &rig, f, 35.0);
            return std::make_pair(out.counters.exec.cycles,
                                  out.counters.exec.completions);
        });
    };
    exp::ThreadPool serial(1);
    exp::ThreadPool wide(8);
    auto a = sweep(serial);
    auto b = sweep(wide);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first) << "freq index " << i;
        EXPECT_EQ(a[i].second, b[i].second) << "freq index " << i;
    }
}

TEST(ParallelMapTest, PropagatesExceptions)
{
    exp::ThreadPool pool(4);
    std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_THROW(
        exp::parallelMap(pool, items,
                         [](const int& v) {
                             if (v == 5)
                                 throw std::runtime_error("task 5 failed");
                             return v;
                         }),
        std::runtime_error);
    // The pool survives a throwing sweep and stays usable.
    auto ok = exp::parallelMap(pool, items,
                               [](const int& v) { return v + 1; });
    EXPECT_EQ(ok[7], 8);
}

TEST(ParallelMapTest, RecordsPerTaskSeconds)
{
    exp::ThreadPool pool(2);
    std::vector<int> items = {1, 2, 3};
    std::vector<double> seconds;
    exp::parallelMap(
        pool, items,
        [](const int& v) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return v;
        },
        &seconds);
    ASSERT_EQ(seconds.size(), items.size());
    for (double s : seconds)
        EXPECT_GT(s, 0.0);
}

TEST(CompileCacheTest, CompilesEachKeyOnceUnderContention)
{
    compiler::CompileCache cache;
    std::atomic<int> builds{0};
    exp::ThreadPool pool(8);
    std::vector<int> items(64);
    auto results = exp::parallelMap(pool, items, [&](const int&) {
        return cache.getOrCompile("k", [&] {
            builds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            return compiler::compile(workloads::build("blink"),
                                     compiler::Scheme::kNvp);
        });
    });
    EXPECT_EQ(builds.load(), 1);
    for (const auto& r : results)
        EXPECT_EQ(r.get(), results[0].get());  // one shared instance
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CompileCacheTest, DistinctKeysGetDistinctPrograms)
{
    compiler::CompileCache cache;
    auto a = cache.getOrCompile(
        compiler::CompileCache::makeKey("blink", compiler::Scheme::kNvp,
                                        "devA"),
        [] {
            return compiler::compile(workloads::build("blink"),
                                     compiler::Scheme::kNvp);
        });
    auto b = cache.getOrCompile(
        compiler::CompileCache::makeKey("blink", compiler::Scheme::kGecko,
                                        "devA"),
        [] {
            return compiler::compile(workloads::build("blink"),
                                     compiler::Scheme::kGecko);
        });
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(CompileCacheTest, FailedBuildIsRetriable)
{
    compiler::CompileCache cache;
    int attempts = 0;
    auto build = [&]() -> compiler::CompiledProgram {
        if (++attempts == 1)
            throw std::runtime_error("transient");
        return compiler::compile(workloads::build("blink"),
                                 compiler::Scheme::kNvp);
    };
    EXPECT_THROW(cache.getOrCompile("k", build), std::runtime_error);
    EXPECT_NO_THROW(cache.getOrCompile("k", build));
    EXPECT_EQ(attempts, 2);
}

TEST(ThreadPoolTest, EnvDefaultRespectsOverride)
{
    exp::ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(exp::ThreadPool::global().threadCount(), 3);
}

TEST(ThreadPoolTest, ThreadCountIsReadWholeAndBounded)
{
    // Unset or empty defers to the hardware count.
    const unsigned hw = std::thread::hardware_concurrency();
    const int hwThreads = hw >= 1 ? static_cast<int>(hw) : 1;
    EXPECT_EQ(exp::ThreadPool::defaultThreads(nullptr), hwThreads);
    EXPECT_EQ(exp::ThreadPool::defaultThreads(""), hwThreads);
    EXPECT_EQ(exp::ThreadPool::defaultThreads("1"), 1);
    EXPECT_EQ(exp::ThreadPool::defaultThreads("04"), 4);
    EXPECT_EQ(exp::ThreadPool::defaultThreads("1024"), 1024);
    // A prefix is not a count, and neither is anything out of 1..1024:
    // each is refused naming the variable, never read as a prefix or
    // replaced by the hardware count.
    for (const char* bad : {"4x", "2.5", "abc", "0", "-3", " 4", "4 ", "+4",
                            "1025", "16384", "99999999999",
                            "99999999999999999999999"}) {
        try {
            exp::ThreadPool::defaultThreads(bad);
            ADD_FAILURE() << "GECKO_THREADS=" << bad << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("GECKO_THREADS"),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace gecko
