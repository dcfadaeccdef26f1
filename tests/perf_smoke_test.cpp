#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "compiler/pipeline.hpp"
#include "defense/controller.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "fault/campaign.hpp"
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

/**
 * Burst engagement guard for the saturated EMI storm (DESIGN.md §14):
 * the attack_sweep comparator point (FR5994 comparator path, 5 MHz,
 * 35 dBm from 0.1 m) on a GECKO victim with the adaptive controller.
 * The tone trips backup and wake on every sample; once the controller
 * has disarmed JIT, nearly every running quantum is an exact repeat
 * the storm burst must absorb.  On a dead supply with the buffer below
 * V_off + lockout, nearly every sleep sample is a refused forged wake
 * the sleep burst must absorb.  Counts only — no wall-clock floor.
 */
struct StormSlice {
    sim::SimStats stats;
    std::uint64_t defenseSamples = 0;
};

StormSlice
runStormSlice(bool dark)
{
    static const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), compiler::Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig config;
    config.monitorKind = analog::MonitorKind::kComparator;
    config.cap.capacitanceF = 1e-3;
    config.cap.initialV = dark ? 2.05 : 3.3;
    config.coalesceQuanta = 64;
    defense::presetByName("adaptive", &config.defense);
    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::ConstantHarvester supply(dark ? 0.0 : 3.3, 5.0);
    attack::RemoteRig rig(dev, config.monitorKind, 0.1);
    attack::EmiSource source(rig, 5e6, 35.0);
    sim::IntermittentSim simulation(compiled, dev, config, supply, io);
    simulation.setEmiSource(&source);
    simulation.run(0.05);
    return {simulation.stats, simulation.defenseController()->stats().samples};
}

TEST(PerfSmokeTest, SaturatedStormBurstsEngage)
{
    const StormSlice storm = runStormSlice(false);
    ASSERT_GT(storm.stats.quanta, 50'000u) << "slice too short";
    EXPECT_GE(storm.stats.coalescedQuanta * 10, storm.stats.quanta * 9)
        << "storm bursts absorbed only " << storm.stats.coalescedQuanta
        << " of " << storm.stats.quanta << " running quanta";

    const StormSlice dark = runStormSlice(true);
    EXPECT_EQ(dark.stats.reboots, 0u) << "the dark slice must stay asleep";
    // Every sleep sample feeds the controller once.
    ASSERT_GT(dark.defenseSamples, 50'000u) << "slice too short";
    EXPECT_GE(dark.stats.coalescedSleepSamples * 10, dark.defenseSamples * 9)
        << "sleep bursts absorbed only " << dark.stats.coalescedSleepSamples
        << " of " << dark.defenseSamples << " sleep samples";
    std::cout << "[perf_smoke] storm: " << storm.stats.coalescedQuanta << "/"
              << storm.stats.quanta << " quanta coalesced; dark: "
              << dark.stats.coalescedSleepSamples << "/"
              << dark.defenseSamples << " sleep samples absorbed\n";
}

/**
 * Evaluated-burst engagement guard (DESIGN.md §14): the attack_sweep
 * FR5994 ADC point (27 MHz, 35 dBm from 0.1 m, 1 Hz outage supply) on
 * an NVP victim.  The tone forges wakes at random carrier phases, so no
 * certificate holds; every sleep sample up to the wake that boots must
 * be absorbed by an evaluated sleep burst.  A weak off-resonance tone
 * (40 MHz, ~50 mV) on a running victim never moves a latch: the
 * bounded-tone certificate must absorb its running quanta.  Counts
 * only — no wall-clock floor.
 */
sim::SimStats
runAdcSlice(double freqHz, bool squareWave, double seconds)
{
    static const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), compiler::Scheme::kNvp);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig config;
    config.cap.capacitanceF = 1e-3;
    config.cap.initialV = 3.3;
    config.coalesceQuanta = 64;
    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::SquareWaveHarvester outages(3.3, 5.0, 0.5, 0.5);
    energy::ConstantHarvester bench(3.3, 5.0);
    energy::Harvester& supply =
        squareWave ? static_cast<energy::Harvester&>(outages) : bench;
    attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.1);
    attack::EmiSource source(rig, freqHz, 35.0);
    sim::IntermittentSim simulation(compiled, dev, config, supply, io);
    simulation.setEmiSource(&source);
    simulation.run(seconds);
    return simulation.stats;
}

TEST(PerfSmokeTest, EvaluatedAdcBurstsEngage)
{
    const sim::SimStats storm = runAdcSlice(27e6, true, 1.0);
    ASSERT_GT(storm.sleepSamples, 20'000u) << "slice too short";
    EXPECT_GE(storm.coalescedSleepSamples * 10, storm.sleepSamples * 9)
        << "evaluated sleep bursts absorbed only "
        << storm.coalescedSleepSamples << " of " << storm.sleepSamples
        << " sleep samples";

    const sim::SimStats weak = runAdcSlice(40e6, false, 0.2);
    ASSERT_GT(weak.quanta, 10'000u) << "slice too short";
    EXPECT_GE(weak.coalescedQuanta * 10, weak.quanta * 9)
        << "bounded-tone bursts absorbed only " << weak.coalescedQuanta
        << " of " << weak.quanta << " running quanta";
    std::cout << "[perf_smoke] ADC storm: " << storm.coalescedSleepSamples
              << "/" << storm.sleepSamples
              << " sleep samples absorbed; weak tone: "
              << weak.coalescedQuanta << "/" << weak.quanta
              << " quanta coalesced\n";
}

/**
 * Completion-replay engagement guard (DESIGN.md §12): a Fig. 14 victim
 * (GECKO on the RF harvesting trace) of an input-free kernel and of the
 * input-reading sensor loop.  Counts only — no wall-clock floor.
 */
sim::Counters
runHarvestVictim(const std::string& workload, double seconds)
{
    const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build(workload), compiler::Scheme::kGecko);
    sim::IoHub io;
    workloads::setupIo(workload, io);
    energy::TraceHarvester trace =
        energy::makeRfTrace(3.3, 5.0, 1.0, 0.55, seconds, 7);
    sim::SimConfig config;
    config.cap.capacitanceF = 1e-3;
    sim::IntermittentSim simulation(compiled,
                                    device::DeviceDb::msp430fr5994(),
                                    config, trace, io);
    simulation.machine().setExecBackend(sim::ExecBackend::kBlock);
    simulation.run(seconds);
    return simulation.counters();
}

TEST(PerfSmokeTest, RepeatedCompletionsReplay)
{
    const sim::Counters qsort = runHarvestVictim("qsort", 1.0);
    ASSERT_GT(qsort.exec.completions, 100u) << "slice too short";
    EXPECT_GE(qsort.sim.replayedCompletions * 10,
              qsort.exec.completions * 8)
        << "replayed only " << qsort.sim.replayedCompletions << " of "
        << qsort.exec.completions << " qsort completions";

    const sim::Counters sensor = runHarvestVictim("sensor_loop", 1.0);
    ASSERT_GT(sensor.exec.completions, 100u) << "slice too short";
    EXPECT_EQ(sensor.sim.replayedCompletions, 0u)
        << "an input-reading kernel replayed";
    std::cout << "[perf_smoke] qsort replayed "
              << qsort.sim.replayedCompletions << "/"
              << qsort.exec.completions << " completions; sensor_loop "
              << sensor.sim.replayedCompletions << "/"
              << sensor.exec.completions << "\n";
}

/**
 * Steady-loop fast-forward guard (DESIGN.md §12): the 160-case seed-42
 * campaign's bitcnt livelock — restored with a corrupted inner-loop
 * bound, it spins in a five-instruction self-loop to the cycle cap —
 * must apply ≥ 95 % of its instructions in closed form; an
 * input-reading victim applies none.  Counts only: fuzz_test's
 * BackendFaultDifferentialTest.SteadyLivelocksAgreeAcrossTiers holds
 * the same case to the step tier's result.
 */
TEST(PerfSmokeTest, SteadyLivelockFastForwards)
{
    fault::CaseSpec spec;
    spec.workload = "bitcnt";
    spec.scheme = compiler::Scheme::kNvp;
    spec.injector = fault::InjectorKind::kMultiBitFlip;
    spec.seed = 3680978280238149192ull;
    const fault::CaseResult block =
        fault::runCase(spec, 0.5, 0, sim::ExecBackend::kBlock);
    ASSERT_EQ(block.outcome, fault::CaseOutcome::kLivelock);
    const std::uint64_t applied = block.counters.sim.steadyLoopIterations * 5;
    EXPECT_GE(applied * 100, block.counters.exec.instrs * 95)
        << "applied " << applied << " of " << block.counters.exec.instrs
        << " instructions in closed form";

    const sim::Counters sensor = runHarvestVictim("sensor_loop", 1.0);
    ASSERT_GT(sensor.exec.completions, 100u) << "slice too short";
    EXPECT_EQ(sensor.sim.steadyLoopIterations, 0u)
        << "sensor_loop fast-forwarded a loop";
    std::cout << "[perf_smoke] bitcnt livelock applied " << applied << "/"
              << block.counters.exec.instrs
              << " instructions in closed form; sensor_loop "
              << sensor.sim.steadyLoopIterations << " iterations\n";
}

}  // namespace
}  // namespace gecko
