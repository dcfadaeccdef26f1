#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "compiler/compile_cache.hpp"
#include "exp/parallel.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"

/**
 * @file
 * Tests for the parallel sweep-execution engine: the parallelFor claim
 * loop's width, stop and nesting rules, parallelMap's ordering and
 * determinism, exception propagation, the shared compile cache, and
 * the GECKO_THREADS / GECKO_SEED parsers.  exp_test is the suite the
 * TSan build gate runs (`-DGECKO_SANITIZE=thread`).
 */

namespace gecko {
namespace {

/** What one parallelFor of `n` 2 ms bodies on a `width` pool ran on. */
struct LoopThreads {
    /// Most bodies running at once.
    int peak = 0;
    /// Distinct threads that ran a body.
    std::set<std::thread::id> ids;
};

LoopThreads
loopThreads(int width, std::size_t n)
{
    exp::ThreadPool pool(width);
    LoopThreads out;
    std::mutex mutex;
    int running = 0;
    exp::parallelFor(pool, n, [&](std::size_t) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            out.peak = std::max(out.peak, ++running);
            out.ids.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mutex);
        --running;
        return true;
    });
    return out;
}

TEST(ParallelForTest, RunsAtMostTheWidthOrNThreads)
{
    const LoopThreads wide = loopThreads(4, 64);
    EXPECT_LE(wide.peak, 4);
    EXPECT_LE(wide.ids.size(), 4u);
    EXPECT_GT(wide.ids.size(), 1u);
    // Fewer indices than the width start only n - 1 helpers.
    EXPECT_LE(loopThreads(8, 3).ids.size(), 3u);
    // Width 1 (and a single index) runs entirely on the caller.
    for (const LoopThreads& serial : {loopThreads(1, 16), loopThreads(4, 1)}) {
        EXPECT_EQ(serial.peak, 1);
        ASSERT_EQ(serial.ids.size(), 1u);
        EXPECT_EQ(*serial.ids.begin(), std::this_thread::get_id());
    }
}

/**
 * Indices a loop over 1000 slow bodies starts after the body of index 8
 * stops it, by throwing or by returning false.  The other bodies take
 * 20 ms, far longer than the stopping body needs to raise the flag, so
 * each other thread starts at most the index it claimed meanwhile.
 */
int
startsAfterStop(exp::ThreadPool& pool, bool throws)
{
    std::atomic<int> started{0};
    std::atomic<int> atStop{0};
    const auto body = [&](std::size_t i) {
        const int k = ++started;
        if (i == 8) {
            atStop = k;
            if (throws)
                throw std::runtime_error("index 8 failed");
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return true;
    };
    if (throws)
        EXPECT_THROW(exp::parallelFor(pool, 1000, body), std::runtime_error);
    else
        exp::parallelFor(pool, 1000, body);
    EXPECT_GT(atStop.load(), 0);
    return started - atStop;
}

TEST(ParallelForTest, AThrowStopsEveryThreadAndIsRethrown)
{
    exp::ThreadPool pool(4);
    EXPECT_LE(startsAfterStop(pool, true), 3);
    // The next loop on the same pool still runs every index.
    std::atomic<std::size_t> sum{0};
    exp::parallelFor(pool, 100, [&](std::size_t i) {
        sum += i;
        return true;
    });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelForTest, ABodyReturningFalseStopsEveryThread)
{
    exp::ThreadPool pool(4);
    EXPECT_LE(startsAfterStop(pool, false), 3);
    exp::ThreadPool serial(1);
    EXPECT_EQ(startsAfterStop(serial, false), 0);
}

TEST(ParallelForTest, NestedLoopRunsInline)
{
    exp::ThreadPool pool(4);
    std::atomic<int> offThread{0};
    exp::parallelFor(pool, 16, [&](std::size_t) {
        const std::thread::id self = std::this_thread::get_id();
        // Slow enough that helpers, had any started, would claim some.
        exp::parallelFor(pool, 16, [&](std::size_t) {
            if (std::this_thread::get_id() != self)
                ++offThread;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return true;
        });
        return true;
    });
    EXPECT_EQ(offThread.load(), 0);
}

TEST(ParallelForTest, LoopInsideAnInlineLoopFansOut)
{
    // A one-item map (fault_campaign's runSweep around the campaign)
    // and a width-1 loop run inline without counting as running, so a
    // loop their body starts still fans out.
    exp::ThreadPool pool(4);
    const auto innerThreads = [](int) { return loopThreads(4, 64).ids.size(); };
    EXPECT_GT(exp::parallelMap(pool, std::vector<int>{0}, innerThreads)[0],
              1u);
    exp::ThreadPool serial(1);
    for (std::size_t threads :
         exp::parallelMap(serial, std::vector<int>{0, 1}, innerThreads))
        EXPECT_GT(threads, 1u);
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

TEST(SeedTest, GeckoSeedIsReadWholeAsDecimal)
{
    // Unset or empty is the unseeded baseline; anything else reads as
    // the digits --seed= takes, so 010 is ten, never octal eight.
    EXPECT_EQ(exp::parseSeed(nullptr), 0u);
    EXPECT_EQ(exp::parseSeed(""), 0u);
    EXPECT_EQ(exp::parseSeed("0"), 0u);
    EXPECT_EQ(exp::parseSeed("42"), 42u);
    EXPECT_EQ(exp::parseSeed("010"), 10u);
    EXPECT_EQ(exp::parseSeed("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    for (const char* bad : {"0x10", "-1", "+5", " 5", "5 ", "4x", "abc",
                            "1e3", "18446744073709551616",
                            "99999999999999999999999"}) {
        try {
            exp::parseSeed(bad);
            ADD_FAILURE() << "GECKO_SEED=" << bad << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("GECKO_SEED"),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace gecko
