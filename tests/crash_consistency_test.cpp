#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "compiler/pipeline.hpp"
#include "runtime/gecko_runtime.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/jit_checkpoint.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * The paper's correctness claim as an executable property: *regardless
 * of when a power failure occurs, the program remains intact and
 * recoverable* (§I).  For every workload and scheme we sweep power
 * failures across the whole execution and require the observable output
 * and the final NVM data image to equal the failure-free run — for hard
 * failures (rollback recovery incl. recovery blocks, GECKO under
 * attack) and for graceful JIT cycles (roll-forward).
 */

namespace gecko {
namespace {

using compiler::CompiledProgram;
using compiler::Scheme;
using runtime::GeckoRuntime;
using sim::IoHub;
using sim::JitCheckpoint;
using sim::Machine;
using sim::Nvm;
using sim::RunExit;

struct RunResult {
    std::vector<std::uint32_t> out0;
    std::vector<std::uint32_t> out2;
    std::vector<std::uint32_t> memory;
    std::uint64_t conflicts = 0;
    std::uint64_t boots = 0;
};

enum class FailureKind {
    kHard,      ///< brown-out with no checkpoint: forces rollback
    kGraceful,  ///< JIT checkpoint completes: forces roll-forward
};

/**
 * Execute `compiled` to completion, injecting a power failure roughly
 * every `interval` executed cycles (at most `max_failures` of them —
 * unbounded injection livelocks schemes whose region re-execution
 * exceeds the interval, which is Ratchet's documented DoS mode, not a
 * consistency bug).
 */
RunResult
runWithFailures(const CompiledProgram& compiled, const std::string& name,
                std::uint64_t interval, FailureKind kind,
                std::uint64_t first_failure = 0, int max_failures = 25)
{
    Nvm nvm(16384);
    IoHub io;
    workloads::setupIo(name, io);
    Machine machine(compiled, nvm, io);
    machine.setStagedIo(compiled.scheme != Scheme::kNvp);
    GeckoRuntime runtime(compiled, machine, nvm);

    runtime.onBoot();
    std::uint64_t executed = 0;
    std::uint64_t next_failure = first_failure ? first_failure : interval;
    std::uint64_t watchdog = 0;

    while (!machine.halted()) {
        std::uint64_t budget =
            next_failure > executed ? next_failure - executed : 1;
        std::uint64_t consumed = 0;
        RunExit exit = machine.run(budget, &consumed);
        executed += consumed;
        if (consumed > 0)
            runtime.noteExecutionSinceCheckpoint();
        runtime.onProgress();
        if (exit == RunExit::kHalted)
            break;
        if (executed >= next_failure && max_failures-- > 0) {
            if (kind == FailureKind::kGraceful && runtime.jitActive()) {
                JitCheckpoint::checkpoint(machine, nvm);
                runtime.noteJitCheckpointComplete();
            }
            machine.powerCycle();
            runtime.onBoot();
        }
        if (executed >= next_failure)
            next_failure += interval;
        if (++watchdog > 2'000'000)
            throw std::runtime_error("no forward progress (livelock)");
    }

    RunResult result;
    result.out0 = io.output(0).values();
    result.out2 = io.output(2).values();
    result.memory = nvm.data();
    result.conflicts = io.output(0).conflicts() + io.output(2).conflicts();
    result.boots = nvm.bootCount;
    return result;
}

RunResult
goldenRun(const CompiledProgram& compiled, const std::string& name,
          std::uint64_t* cycles = nullptr)
{
    Nvm nvm(16384);
    IoHub io;
    workloads::setupIo(name, io);
    std::uint64_t c = sim::runToCompletion(compiled, nvm, io);
    if (cycles)
        *cycles = c;
    RunResult r;
    r.out0 = io.output(0).values();
    r.out2 = io.output(2).values();
    r.memory = nvm.data();
    return r;
}

using Param = std::tuple<std::string, Scheme>;

class CrashConsistencyTest : public ::testing::TestWithParam<Param>
{
  protected:
    std::string name() const { return std::get<0>(GetParam()); }
    Scheme scheme() const { return std::get<1>(GetParam()); }
};

TEST_P(CrashConsistencyTest, HardFailureSweepMatchesGolden)
{
    CompiledProgram compiled =
        compiler::compile(workloads::build(name()), scheme());
    std::uint64_t golden_cycles = 0;
    RunResult gold = goldenRun(compiled, name(), &golden_cycles);

    // Sweep several failure cadences scaled to the program so even the
    // shortest workloads see failures; odd divisors land failures at
    // many distinct program points, including inside entry sequences.
    for (std::uint64_t interval :
         {std::max<std::uint64_t>(53, golden_cycles / 37),
          std::max<std::uint64_t>(101, golden_cycles / 11),
          std::max<std::uint64_t>(211, golden_cycles / 3)}) {
        RunResult r =
            runWithFailures(compiled, name(), interval, FailureKind::kHard);
        EXPECT_EQ(r.out0, gold.out0)
            << name() << " interval " << interval;
        EXPECT_EQ(r.out2, gold.out2);
        EXPECT_EQ(r.memory, gold.memory);
        EXPECT_EQ(r.conflicts, 0u);
        EXPECT_GT(r.boots, 1u) << "no failures were injected";
    }
}

TEST_P(CrashConsistencyTest, DenseFirstFailureOffsets)
{
    // Vary the offset of the very first failure at fine granularity so
    // every part of the early entry sequences gets hit.
    CompiledProgram compiled =
        compiler::compile(workloads::build(name()), scheme());
    RunResult gold = goldenRun(compiled, name());
    for (std::uint64_t offset = 1; offset <= 61; offset += 3) {
        RunResult r = runWithFailures(compiled, name(), 7919,
                                      FailureKind::kHard, offset);
        ASSERT_EQ(r.out0, gold.out0) << name() << " offset " << offset;
        ASSERT_EQ(r.memory, gold.memory) << name() << " offset " << offset;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RollbackSchemes, CrashConsistencyTest,
    ::testing::Combine(::testing::ValuesIn([] {
                           auto v = workloads::benchmarkNames();
                           v.push_back("sensor_loop");
                           v.push_back("sensor_app");
                           v.push_back("xtea");
                           return v;
                       }()),
                       ::testing::Values(Scheme::kRatchet,
                                         Scheme::kGeckoNoPrune,
                                         Scheme::kGecko)),
    [](const auto& info) {
        std::string name = std::get<0>(info.param) + "_" +
                           compiler::schemeName(std::get<1>(info.param));
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

class GracefulCycleTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GracefulCycleTest, JitRollForwardMatchesGolden)
{
    for (Scheme scheme : {Scheme::kNvp, Scheme::kGecko}) {
        CompiledProgram compiled =
            compiler::compile(workloads::build(GetParam()), scheme);
        RunResult gold = goldenRun(compiled, GetParam());
        RunResult r = runWithFailures(compiled, GetParam(), 2003,
                                      FailureKind::kGraceful);
        EXPECT_EQ(r.out0, gold.out0)
            << GetParam() << " " << compiler::schemeName(scheme);
        EXPECT_EQ(r.memory, gold.memory);
        EXPECT_EQ(r.conflicts, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GracefulCycleTest,
                         ::testing::ValuesIn([] {
                             auto v = workloads::benchmarkNames();
                             v.push_back("sensor_loop");
                             v.push_back("sensor_app");
                             v.push_back("xtea");
                             return v;
                         }()),
                         [](const auto& info) { return info.param; });

TEST(CrashConsistencyTest, MixedGracefulAndHardCycles)
{
    // Alternate roll-forward and rollback recoveries within one run:
    // the GECKO hybrid switching must stay consistent.
    const std::string name = "dijkstra";
    CompiledProgram compiled =
        compiler::compile(workloads::build(name), Scheme::kGecko);
    RunResult gold = goldenRun(compiled, name);

    Nvm nvm(16384);
    IoHub io;
    workloads::setupIo(name, io);
    Machine machine(compiled, nvm, io);
    machine.setStagedIo(true);
    GeckoRuntime runtime(compiled, machine, nvm);
    runtime.onBoot();

    int cycle = 0;
    std::uint64_t watchdog = 0;
    while (!machine.halted()) {
        std::uint64_t consumed = 0;
        RunExit exit = machine.run(1501, &consumed);
        if (consumed > 0)
            runtime.noteExecutionSinceCheckpoint();
        runtime.onProgress();
        if (exit == RunExit::kHalted)
            break;
        if (cycle++ % 2 == 0 && runtime.jitActive()) {
            JitCheckpoint::checkpoint(machine, nvm);
            runtime.noteJitCheckpointComplete();
        }
        machine.powerCycle();
        runtime.onBoot();
        ASSERT_LT(++watchdog, 1'000'000u);
    }

    EXPECT_EQ(io.output(0).values(), gold.out0);
    EXPECT_EQ(nvm.data(), gold.memory);
    EXPECT_EQ(io.output(0).conflicts(), 0u);
}

}  // namespace
}  // namespace gecko
