#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "compiler/pipeline.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/machine.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Perf smoke (ctest label `perf`): a short fig13 slice — the attacked
 * sensor app on duty-cycled power — run under the reference step tier
 * and the block-compiled backend.  Fails if
 *  - the block backend diverges from step in any observable final
 *    state (the figures' byte-identical-stdout guarantee), or
 *  - the block backend takes more than half the step tier's time (a
 *    regression guard with wide headroom, not a speedup assertion:
 *    wall-clock ratios on shared CI hosts are too noisy to gate the
 *    measured speedup, which is recorded in BENCH_sweeps.json
 *    instead).
 * Each backend takes the best of three timed runs to damp scheduler
 * noise.
 */

namespace gecko {
namespace {

struct SliceResult {
    sim::ExecStats stats;
    std::array<std::uint32_t, 16> regs{};
    std::uint32_t pc = 0;
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
    double bestWallS = 0.0;
};

/** One fig13 scenario-(f) GECKO cell, shortened to 20 paper-minutes. */
SliceResult
runSlice(sim::ExecBackend backend, int reps)
{
    const double kMinuteS = 0.2;
    const double kTotalMin = 20.0;

    static const compiler::CompiledProgram compiled = [] {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 6000;
        return compiler::compile(workloads::build("sensor_app"),
                                 compiler::Scheme::kGecko, pconfig);
    }();
    const auto& dev = device::DeviceDb::msp430fr5994();

    SliceResult result;
    for (int rep = 0; rep < reps; ++rep) {
        sim::IoHub io;
        workloads::setupIo("sensor_app", io);
        energy::ConstantHarvester wave(3.3, 150.0);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;
        attack::AttackSchedule schedule =
            attack::AttackSchedule::scenario('f', kMinuteS, 5.0, 27e6,
                                             35.0);
        attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.5);
        attack::EmiSource source(rig, 27e6, 35.0);

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.machine().setExecBackend(backend);
        simulation.setEmiSource(&source);
        simulation.setAttackSchedule(&schedule);

        auto t0 = std::chrono::steady_clock::now();
        simulation.run(kTotalMin * kMinuteS);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();

        if (rep == 0 || wall < result.bestWallS)
            result.bestWallS = wall;
        result.stats = simulation.machine().stats;
        result.regs = simulation.machine().regs();
        result.pc = simulation.machine().pc();
        result.out = io.output(0).values();
        result.memory = simulation.nvm().data();
    }
    return result;
}

TEST(PerfSmokeTest, BlockBackendOutpacesStep)
{
    SliceResult step = runSlice(sim::ExecBackend::kStep, 3);
    SliceResult block = runSlice(sim::ExecBackend::kBlock, 3);

    // Divergence in final machine state fails regardless of timing.
    EXPECT_TRUE(block.stats == step.stats)
        << "block backend diverged in ExecStats";
    EXPECT_EQ(block.regs, step.regs);
    EXPECT_EQ(block.pc, step.pc);
    EXPECT_EQ(block.out, step.out);
    EXPECT_EQ(block.memory, step.memory);
    ASSERT_GT(step.stats.cycles, 1'000'000u) << "slice too short to time";

    EXPECT_LE(block.bestWallS, step.bestWallS * 0.50)
        << "block backend regressed: " << block.bestWallS
        << "s vs step " << step.bestWallS << "s";

    // Informational: the recorded speedup lives in BENCH_sweeps.json.
    std::cout << "[perf_smoke] step " << step.bestWallS << "s, block "
              << block.bestWallS << "s ("
              << step.bestWallS / block.bestWallS << "x)\n";
}

/**
 * Quantum-coalescing regression guard (DESIGN.md §14): a quiet
 * fig13-style slice — same device/cap/workload, attack tone absent —
 * must (a) actually engage the coalescing fast path and (b) sustain a
 * conservative simulated-cycles-per-wall-second floor.  The floor is
 * ~20x below the rate a contended 1-core host reaches, so it only trips
 * on a genuine collapse of the fast path (e.g. the guard chain
 * rejecting every burst), not on CI noise.
 */
TEST(PerfSmokeTest, QuietSliceCoalescesAndHoldsThroughputFloor)
{
    static const compiler::CompiledProgram compiled = [] {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 6000;
        return compiler::compile(workloads::build("sensor_app"),
                                 compiler::Scheme::kGecko, pconfig);
    }();
    const auto& dev = device::DeviceDb::msp430fr5994();

    double bestWallS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t quanta = 0;
    std::uint64_t coalesced = 0;
    for (int rep = 0; rep < 3; ++rep) {
        sim::IoHub io;
        workloads::setupIo("sensor_app", io);
        energy::ConstantHarvester wave(3.3, 150.0);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;
        config.coalesceQuanta = 64;

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.machine().setExecBackend(sim::ExecBackend::kBlock);

        auto t0 = std::chrono::steady_clock::now();
        simulation.run(2.0);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || wall < bestWallS)
            bestWallS = wall;
        cycles = simulation.machine().stats.cycles;
        quanta = simulation.stats.quanta;
        coalesced = simulation.stats.coalescedQuanta;
    }

    ASSERT_GT(cycles, 1'000'000u) << "slice too short to time";
    EXPECT_GT(coalesced, 0u)
        << "coalescing fast path never engaged on a quiet slice";
    // Most quanta of a quiet steady-source run should coalesce.
    EXPECT_GT(coalesced * 2, quanta)
        << "fast path absorbed only " << coalesced << " of " << quanta
        << " quanta";
    const double simCyclesPerS = static_cast<double>(cycles) / bestWallS;
    EXPECT_GE(simCyclesPerS, 5e7)
        << "quiet-slice throughput collapsed: " << simCyclesPerS
        << " sim cycles/s (" << cycles << " cycles in " << bestWallS
        << "s)";
    std::cout << "[perf_smoke] quiet slice: " << simCyclesPerS
              << " sim cycles/s, " << coalesced << "/" << quanta
              << " quanta coalesced\n";
}

}  // namespace
}  // namespace gecko
