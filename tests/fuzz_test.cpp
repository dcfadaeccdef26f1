#include <gtest/gtest.h>

#include <array>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "attack/attack_schedule.hpp"
#include "campaign/snapshot.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "compiler/pipeline.hpp"
#include "defense/controller.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "fault/campaign.hpp"
#include "workloads/workloads.hpp"
#include "ir/builder.hpp"
#include "runtime/gecko_runtime.hpp"
#include "sim/intermittent_sim.hpp"
#include "test_util.hpp"
#include "trace/invariants.hpp"
#include "trace/trace.hpp"

/**
 * @file
 * Property fuzzing: the crash-consistency guarantee must hold for
 * arbitrary programs, not just the curated workload suite.
 *
 * A deterministic generator builds structured random programs —
 * sequences of ALU blocks, memory traffic over a small window (plenty
 * of anti-dependences), counted and data-dependent loops, diamonds —
 * and every one is swept with hard power failures under Ratchet and
 * GECKO, comparing outputs and final memory against the failure-free
 * run.
 */

namespace gecko {
namespace {

using compiler::CompiledProgram;
using compiler::Scheme;

/** xorshift PRNG — deterministic across platforms. */
class Rng
{
  public:
    explicit Rng(std::uint32_t seed) : state_(seed ? seed : 1) {}

    std::uint32_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 17;
        state_ ^= state_ << 5;
        return state_;
    }

    /** Uniform in [0, n). */
    std::uint32_t pick(std::uint32_t n) { return next() % n; }

  private:
    std::uint32_t state_;
};

/**
 * Generate a structured random program.
 *
 * Registers r1..r9 are general data registers; r10/r11/r12 are reserved
 * as loop counters/bounds per nesting level, keeping every loop a
 * counted pattern the pipeline can bound.  Memory traffic stays inside
 * [100, 160), guaranteeing aliasing pressure.
 */
ir::Program
generate(std::uint32_t seed)
{
    // A nonzero GECKO_SEED reseeds the whole population (exp/rng.hpp);
    // the unseeded baseline keeps the historical programs.
    seed = static_cast<std::uint32_t>(exp::applyGlobalSeed(seed));
    Rng rng(seed);
    ir::ProgramBuilder b("fuzz" + std::to_string(seed));
    int label_counter = 0;
    auto fresh = [&](const char* hint) {
        std::ostringstream os;
        os << hint << "_" << label_counter++;
        return os.str();
    };

    b.movi(0, 0);
    // Seed data registers.
    for (ir::Reg r = 1; r <= 9; ++r)
        b.movi(r, static_cast<std::int32_t>(rng.pick(1000)));

    auto rand_data_reg = [&]() {
        return static_cast<ir::Reg>(1 + rng.pick(9));
    };

    auto emit_op = [&]() {
        ir::Reg rd = rand_data_reg();
        ir::Reg rs = rand_data_reg();
        switch (rng.pick(11)) {
          case 0:
            b.add(rd, rd, rs);
            break;
          case 1:
            b.sub(rd, rd, rs);
            break;
          case 2:
            b.muli(rd, rs, static_cast<std::int32_t>(rng.pick(7)) + 1);
            break;
          case 3:
            b.xor_(rd, rd, rs);
            break;
          case 4:
            b.shri(rd, rs, static_cast<std::int32_t>(rng.pick(5)));
            break;
          case 5:
            b.andi(rd, rs, 1023);
            break;
          case 6: {
            // Load from the shared window (base + bounded index).
            b.andi(13, rs, 63);
            b.addi(13, 13, 100);
            b.load(rd, 13, 0);
            break;
          }
          case 7: {
            // Store into the shared window: anti-dependence pressure.
            b.andi(13, rs, 63);
            b.addi(13, 13, 100);
            b.store(13, 0, rd);
            break;
          }
          case 9: {
            // I/O: exercises replay-consistent inputs and exactly-once
            // outputs under rollback.
            if (rng.pick(2))
                b.in(rd, 1);
            else
                b.out(0, rs);
            break;
          }
          case 8: {
            // Diamond on a data register.
            std::string t = fresh("then");
            std::string j = fresh("join");
            b.andi(13, rs, 1);
            b.beq(13, 0, t);
            b.addi(rd, rd, 3);
            b.jmp(j);
            b.label(t);
            b.subi(rd, rd, 5);
            b.label(j);
            break;
          }
          default:
            b.mov(rd, rs);
            break;
        }
    };

    // Top-level: a few segments, possibly wrapped in counted loops
    // (nesting depth ≤ 2 via counters r10/r11).
    int segments = 2 + static_cast<int>(rng.pick(3));
    for (int s = 0; s < segments; ++s) {
        int depth = static_cast<int>(rng.pick(3));  // 0, 1, or 2 levels
        std::string l0 = fresh("loop0"), l1 = fresh("loop1");
        if (depth >= 1) {
            b.movi(10, 0);
            b.movi(14, static_cast<std::int32_t>(2 + rng.pick(6)));
            b.label(l0);
        }
        if (depth >= 2) {
            b.movi(11, 0);
            b.movi(15, static_cast<std::int32_t>(2 + rng.pick(4)));
            b.label(l1);
        }
        int ops = 2 + static_cast<int>(rng.pick(6));
        for (int i = 0; i < ops; ++i)
            emit_op();
        if (depth >= 2) {
            b.addi(11, 11, 1);
            b.blt(11, 15, l1);
        }
        if (depth >= 1) {
            b.addi(10, 10, 1);
            b.blt(10, 14, l0);
        }
    }

    // Observable result: fold every data register into the output.
    b.movi(13, 0);
    for (ir::Reg r = 1; r <= 9; ++r)
        b.add(13, 13, r);
    b.out(0, 13);
    b.halt();
    return b.take();
}

struct RunResult {
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
};

void
setupFuzzIo(sim::IoHub& io)
{
    io.setInput(1, std::make_shared<sim::FunctionInput>(
                       [](std::uint64_t i) -> std::uint32_t {
                           return static_cast<std::uint32_t>(
                               (i * 2654435761u) >> 16);
                       }));
}

RunResult
goldenRun(const CompiledProgram& compiled)
{
    sim::Nvm nvm(4096);
    sim::IoHub io;
    setupFuzzIo(io);
    sim::runToCompletion(compiled, nvm, io);
    return {io.output(0).values(), nvm.data()};
}

RunResult
failingRun(const CompiledProgram& compiled, std::uint64_t interval)
{
    sim::Nvm nvm(4096);
    sim::IoHub io;
    setupFuzzIo(io);
    sim::Machine machine(compiled, nvm, io);
    machine.setStagedIo(true);
    runtime::GeckoRuntime runtime(compiled, machine, nvm);
    runtime.onBoot();
    int failures = 30;
    std::uint64_t watchdog = 0;
    while (!machine.halted()) {
        std::uint64_t consumed = 0;
        sim::RunExit exit = machine.run(
            failures > 0 ? interval : 1u << 20, &consumed);
        if (exit == sim::RunExit::kHalted)
            break;
        if (failures-- > 0) {
            machine.powerCycle();
            runtime.onBoot();
        }
        if (++watchdog > 200'000)
            throw std::runtime_error("fuzz livelock");
    }
    return {io.output(0).values(), nvm.data()};
}

class FuzzTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FuzzTest, GeneratedProgramsSurvivePowerFailures)
{
    ir::Program prog = generate(GetParam());
    ASSERT_EQ(prog.validate(), "");

    for (Scheme scheme : {Scheme::kRatchet, Scheme::kGecko}) {
        CompiledProgram compiled = compiler::compile(prog, scheme);
        RunResult gold = goldenRun(compiled);
        for (std::uint64_t interval : {67u, 331u, 1009u}) {
            RunResult r = failingRun(compiled, interval);
            ASSERT_EQ(r.out, gold.out)
                << "seed " << GetParam() << " scheme "
                << compiler::schemeName(scheme) << " interval "
                << interval;
            ASSERT_EQ(r.memory, gold.memory)
                << "seed " << GetParam() << " scheme "
                << compiler::schemeName(scheme) << " interval "
                << interval;
        }
    }
}

TEST_P(FuzzTest, InstrumentationPreservesSemantics)
{
    ir::Program prog = generate(GetParam() ^ 0xbeef);
    ASSERT_EQ(prog.validate(), "");
    RunResult nvp =
        goldenRun(compiler::compile(prog, Scheme::kNvp));
    RunResult gecko =
        goldenRun(compiler::compile(prog, Scheme::kGecko));
    RunResult ratchet =
        goldenRun(compiler::compile(prog, Scheme::kRatchet));
    EXPECT_EQ(nvp.out, gecko.out) << "seed " << GetParam();
    EXPECT_EQ(nvp.out, ratchet.out) << "seed " << GetParam();
    EXPECT_EQ(nvp.memory, gecko.memory) << "seed " << GetParam();
}

TEST_P(FuzzTest, TraceInvariantsHoldUnderPowerFailures)
{
    if (!trace::compiledIn())
        GTEST_SKIP() << "tracing compiled out (GECKO_TRACE=0)";

    ir::Program prog = generate(GetParam());
    ASSERT_EQ(prog.validate(), "");

    for (Scheme scheme : {Scheme::kRatchet, Scheme::kGecko}) {
        CompiledProgram compiled = compiler::compile(prog, scheme);
        trace::Buffer buffer;
        {
            trace::BufferScope scope(&buffer);
            failingRun(compiled, 331);
        }
        std::vector<trace::Event> events = buffer.events();
        ASSERT_FALSE(events.empty())
            << "seed " << GetParam() << " scheme "
            << compiler::schemeName(scheme)
            << ": power-failure run produced no trace events";
        std::vector<std::string> violations =
            trace::checkInvariants(events);
        EXPECT_TRUE(violations.empty())
            << "seed " << GetParam() << " scheme "
            << compiler::schemeName(scheme) << ": "
            << (violations.empty() ? "" : violations.front())
            << " (" << violations.size() << " violations, "
            << events.size() << " events)";

        // Tracing itself is deterministic: the identical run traces to
        // the identical event stream.
        trace::Buffer again;
        {
            trace::BufferScope scope(&again);
            failingRun(compiled, 331);
        }
        EXPECT_TRUE(again.events() == events)
            << "seed " << GetParam() << " scheme "
            << compiler::schemeName(scheme)
            << ": re-run traced differently";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(1u, 121u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Execution-tier differential: the step and block backends must be
// observationally indistinguishable under hostile environments —
// random EMI attack schedules and every fault injector — down to the
// trace stream.
// ---------------------------------------------------------------------

/** Everything observable about one intermittent run. */
struct TierObservation {
    sim::Counters counters;
    std::array<std::uint32_t, 16> regs{};
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
    std::vector<trace::Event> events;
};

/**
 * Run the attacked sensor loop once under `backend`.  Every attack
 * parameter derives from the seed in a fixed order before anything is
 * constructed, so each tier sees the identical environment.
 */
TierObservation
runEmiTier(std::uint32_t seed, sim::ExecBackend backend)
{
    Rng rng(seed);
    double freqHz = 1e6 * (1 + rng.pick(300));
    double powerDbm = 25.0 + rng.pick(16);
    std::vector<attack::AttackWindow> windows;
    double t = 0.001 * (1 + rng.pick(4));
    int nWindows = 2 + static_cast<int>(rng.pick(3));
    for (int i = 0; i < nWindows; ++i) {
        double on = 0.001 * (1 + rng.pick(5));
        windows.push_back({t, t + on, freqHz, powerDbm});
        t += on + 0.001 * (1 + rng.pick(4));
    }

    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 4096;
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.monitorSeed = seed;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;

    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::ConstantHarvester supply(3.3, 5.0);
    sim::IntermittentSim simulation(compiled, dev, cfg, supply, io);
    simulation.machine().setExecBackend(backend);
    attack::RemoteRig rig(dev, cfg.monitorKind, 0.5);
    attack::EmiSource source(rig, freqHz, powerDbm);
    attack::AttackSchedule schedule(std::move(windows));
    simulation.setEmiSource(&source);
    simulation.setAttackSchedule(&schedule);

    TierObservation obs;
    {
        trace::Buffer buffer;
        trace::BufferScope scope(&buffer);
        simulation.run(0.02);
        obs.events = buffer.events();
    }
    obs.counters = simulation.counters();
    obs.regs = simulation.machine().regs();
    obs.out = io.output(0).values();
    obs.memory = simulation.nvm().data();
    return obs;
}

class BackendFuzzTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BackendFuzzTest, RandomEmiSchedulesAgreeAcrossTiers)
{
    auto seed = static_cast<std::uint32_t>(
        exp::applyGlobalSeed(GetParam()));
    TierObservation ref = runEmiTier(seed, sim::ExecBackend::kStep);
    ASSERT_GT(ref.counters.exec.cycles, 0u);
    TierObservation obs = runEmiTier(seed, sim::ExecBackend::kBlock);
    EXPECT_EQ(test::firstArchivedDifference(obs.counters, ref.counters), "")
        << "block diverged (seed " << seed << ")";
    EXPECT_EQ(obs.regs, ref.regs) << "seed " << seed;
    EXPECT_EQ(obs.out, ref.out) << "seed " << seed;
    EXPECT_EQ(obs.memory, ref.memory) << "seed " << seed;
    EXPECT_TRUE(obs.events == ref.events)
        << "block diverged in the trace stream (seed " << seed << ": "
        << obs.events.size() << " vs " << ref.events.size() << " events)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendFuzzTest,
                         ::testing::Range(1u, 9u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Snapshot-mid-run differential: serializing the full simulator state
// between quanta, tearing the world down, and restoring into a freshly
// built environment must be observationally invisible — same stats,
// registers, outputs, NVM image, and trace stream as the uninterrupted
// sliced run, for random EMI schedules under every backend.
// ---------------------------------------------------------------------

/** One fully-owned attacked-run environment (rebuilt for restores). */
struct EmiEnv {
    sim::IoHub io;
    std::unique_ptr<energy::ConstantHarvester> supply;
    std::unique_ptr<sim::IntermittentSim> simulation;
    std::unique_ptr<attack::RemoteRig> rig;
    std::unique_ptr<attack::EmiSource> source;
    std::unique_ptr<attack::AttackSchedule> schedule;
};

/** Deterministic (seed-derived) rebuild; identical every call. */
void
buildEmiEnv(EmiEnv& env, std::uint32_t seed, sim::ExecBackend backend)
{
    Rng rng(seed);
    double freqHz = 1e6 * (1 + rng.pick(300));
    double powerDbm = 25.0 + rng.pick(16);
    std::vector<attack::AttackWindow> windows;
    double t = 0.001 * (1 + rng.pick(4));
    int nWindows = 2 + static_cast<int>(rng.pick(3));
    for (int i = 0; i < nWindows; ++i) {
        double on = 0.001 * (1 + rng.pick(5));
        windows.push_back({t, t + on, freqHz, powerDbm});
        t += on + 0.001 * (1 + rng.pick(4));
    }

    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 4096;
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.monitorSeed = seed;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;

    workloads::setupIo("sensor_loop", env.io);
    env.supply = std::make_unique<energy::ConstantHarvester>(3.3, 5.0);
    env.simulation = std::make_unique<sim::IntermittentSim>(
        compiled, dev, cfg, *env.supply, env.io);
    env.simulation->machine().setExecBackend(backend);
    env.rig = std::make_unique<attack::RemoteRig>(dev, cfg.monitorKind, 0.5);
    env.source =
        std::make_unique<attack::EmiSource>(*env.rig, freqHz, powerDbm);
    env.schedule =
        std::make_unique<attack::AttackSchedule>(std::move(windows));
    env.simulation->setEmiSource(env.source.get());
    env.simulation->setAttackSchedule(env.schedule.get());
}

/**
 * Run the attacked workload as 4 x 5ms slices; at `snapshotAt` (1-3, or
 * -1 for never) serialize, destroy everything, rebuild, restore, and
 * finish.  Slicing is identical in both modes so the quantum plan —
 * and therefore the trajectory — matches exactly.
 */
TierObservation
runEmiSliced(std::uint32_t seed, sim::ExecBackend backend, int snapshotAt)
{
    auto env = std::make_unique<EmiEnv>();
    buildEmiEnv(*env, seed, backend);
    auto buffer = std::make_unique<trace::Buffer>();
    auto scope = std::make_unique<trace::BufferScope>(buffer.get());
    for (int k = 0; k < 4; ++k) {
        env->simulation->run(0.005);
        if (k + 1 == snapshotAt) {
            std::vector<std::uint8_t> blob = campaign::saveSimSnapshot(
                *env->simulation, env->io, buffer.get());
            scope.reset();
            buffer.reset();
            env = std::make_unique<EmiEnv>();
            buildEmiEnv(*env, seed, backend);
            buffer = std::make_unique<trace::Buffer>();
            campaign::restoreSimSnapshot(*env->simulation, env->io, blob,
                                         buffer.get());
            scope = std::make_unique<trace::BufferScope>(buffer.get());
        }
    }
    TierObservation obs;
    obs.events = buffer->events();
    scope.reset();
    obs.counters = env->simulation->counters();
    obs.regs = env->simulation->machine().regs();
    obs.out = env->io.output(0).values();
    obs.memory = env->simulation->nvm().data();
    return obs;
}

class SnapshotFuzzTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SnapshotFuzzTest, MidRunSnapshotRestoreIsInvisible)
{
    auto seed = static_cast<std::uint32_t>(
        exp::applyGlobalSeed(GetParam()));
    for (sim::ExecBackend backend :
         {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
        const char* name = sim::execBackendName(backend);
        TierObservation ref = runEmiSliced(seed, backend, -1);
        ASSERT_GT(ref.counters.exec.cycles, 0u) << name << " seed " << seed;
        for (int at : {1, 2, 3}) {
            TierObservation obs = runEmiSliced(seed, backend, at);
            EXPECT_EQ(
                test::firstArchivedDifference(obs.counters, ref.counters), "")
                << name << " snapshot@" << at << " seed " << seed;
            EXPECT_EQ(obs.regs, ref.regs)
                << name << "@" << at << " seed " << seed;
            EXPECT_EQ(obs.out, ref.out)
                << name << "@" << at << " seed " << seed;
            EXPECT_EQ(obs.memory, ref.memory)
                << name << "@" << at << " seed " << seed;
            EXPECT_TRUE(obs.events == ref.events)
                << name << " snapshot@" << at
                << " diverged in the trace stream (seed " << seed << ": "
                << obs.events.size() << " vs " << ref.events.size()
                << " events)";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzzTest,
                         ::testing::Range(1u, 9u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

/**
 * Run `spec` traced on the step tier (the oracle) and on the block tier
 * and expect the same CaseResult (outcome, injection coordinates,
 * archived counters) and trace stream.  Returns {step, block}.
 */
std::pair<fault::CaseResult, fault::CaseResult>
expectTiersAgree(const fault::CaseSpec& spec, const std::string& label)
{
    // Warm the golden-oracle cache outside any trace buffer so the
    // first tier doesn't record the golden run's own events.
    fault::runCase(spec, 0.5, 0, sim::ExecBackend::kBlock);

    trace::Buffer refBuffer, buffer;
    fault::CaseResult ref, r;
    {
        trace::BufferScope scope(&refBuffer);
        ref = fault::runCase(spec, 0.5, 0, sim::ExecBackend::kStep);
    }
    {
        trace::BufferScope scope(&buffer);
        r = fault::runCase(spec, 0.5, 0, sim::ExecBackend::kBlock);
    }
    EXPECT_EQ(r.outcome, ref.outcome) << label;
    EXPECT_EQ(r.detail, ref.detail) << label;
    EXPECT_EQ(r.injectAt, ref.injectAt) << label;
    EXPECT_EQ(r.word, ref.word) << label;
    EXPECT_EQ(test::firstArchivedDifference(r.counters, ref.counters), "")
        << label;
    EXPECT_EQ(r.defended, ref.defended) << label;
    EXPECT_TRUE(buffer.events() == refBuffer.events())
        << label << " diverged in the trace stream ("
        << buffer.events().size() << " vs " << refBuffer.events().size()
        << " events)";
    return {ref, r};
}

TEST(BackendFaultDifferentialTest, AllInjectorsAgreeAcrossTiers)
{
    // Every injector class, replayed bit-identically per tier: the
    // CaseResult (outcome, injection coordinates, defence counters) and
    // the victim's trace stream must not depend on the dispatch
    // strategy.
    using fault::InjectorKind;
    const InjectorKind kinds[] = {
        InjectorKind::kBitFlip,      InjectorKind::kMultiBitFlip,
        InjectorKind::kTornWrite,    InjectorKind::kAckCorrupt,
        InjectorKind::kStaleImage,   InjectorKind::kMonitorStuck,
        InjectorKind::kMonitorOffset, InjectorKind::kBrownoutBurst,
        InjectorKind::kEmiBurst,      InjectorKind::kInstrSkip,
        InjectorKind::kOpcodeCorrupt, InjectorKind::kOperandFlip,
    };
    for (InjectorKind kind : kinds) {
        for (Scheme scheme : {Scheme::kNvp, Scheme::kGecko}) {
            fault::CaseSpec spec;
            spec.injector = kind;
            spec.scheme = scheme;
            spec.workload =
                fault::isSimLevel(kind) ? "sensor_loop" : "crc16";
            spec.seed = exp::applyGlobalSeed(
                exp::mixSeed(0xd1ffu, static_cast<std::uint64_t>(kind)));
            expectTiersAgree(spec, fault::injectorName(kind));
        }
    }
}

TEST(BackendFaultDifferentialTest, SteadyLivelocksAgreeAcrossTiers)
{
    // Livelocks the block tier fast-forwards (DESIGN.md §12): two bitcnt
    // victims restored with a corrupted inner-loop bound (the first is
    // the 160-case seed-42 campaign's) and a crc16 victim spinning at the
    // CRC-16/ARC LFSR's fixed point 0xC001.  Traced, so the trace stream
    // is compared too.
    using fault::InjectorKind;
    const struct {
        const char* workload;
        InjectorKind kind;
        std::uint64_t seed;
    } cases[] = {
        {"bitcnt", InjectorKind::kMultiBitFlip, 3680978280238149192ull},
        {"bitcnt", InjectorKind::kBitFlip, 16795810471334282639ull},
        {"crc16", InjectorKind::kMultiBitFlip, 11416784783944378102ull},
    };
    for (const auto& k : cases) {
        fault::CaseSpec spec;
        spec.workload = k.workload;
        spec.scheme = Scheme::kNvp;
        spec.injector = k.kind;
        spec.seed = k.seed;
        const std::string label =
            std::string(k.workload) + " seed " + std::to_string(k.seed);
        const auto [ref, r] = expectTiersAgree(spec, label);
        EXPECT_EQ(ref.outcome, fault::CaseOutcome::kLivelock) << label;
        EXPECT_EQ(ref.counters.sim.steadyLoopIterations, 0u) << label;
        EXPECT_GT(r.counters.sim.steadyLoopIterations * 10,
                  r.counters.exec.instrs / 6)
            << label << ": fast-forwarded only "
            << r.counters.sim.steadyLoopIterations << " iterations";
    }
}

// ---------------------------------------------------------------------
// Coalescing differential under EMI (DESIGN.md §14).  Every EMI
// differential above installs a trace buffer, which disables bursts;
// this one runs bufferless so they engage.  Each seed draws a monitor
// path, board, scheme, tone, power, distance, supply and buffer size,
// an optional attack schedule and an optional adaptive controller, and
// runs it with bursts of up to 64 samples and with none: the counters
// and the full simulation snapshot must agree.
// ---------------------------------------------------------------------

struct CoalesceRun {
    sim::Counters counters;
    std::vector<std::uint8_t> snapshot;
};

CoalesceRun
runCoalesceCase(std::uint32_t seed, int coalesceQuanta)
{
    static const std::array<CompiledProgram, 3> programs = {
        compiler::compile(workloads::build("sensor_loop"), Scheme::kNvp),
        compiler::compile(workloads::build("sensor_loop"), Scheme::kRatchet),
        compiler::compile(workloads::build("sensor_loop"), Scheme::kGecko)};
    Rng rng(seed);
    const auto monitor = rng.pick(2) ? analog::MonitorKind::kAdc
                                     : analog::MonitorKind::kComparator;
    const auto& dev = device::DeviceDb::byName(
        rng.pick(2) ? "MSP430FR5994" : "STM32L552ZE");
    const CompiledProgram& program = programs[rng.pick(3)];
    const bool adaptive =
        program.scheme == Scheme::kGecko && rng.pick(2) != 0;
    // 1-40 MHz spans the boards' ADC (17, 27 MHz) and comparator
    // (5 MHz) resonances and the weak tones around them.
    const double freqHz = 1e6 * (1 + rng.pick(40));
    const double powerDbm = 20.0 + rng.pick(16);
    const double distanceM = 0.1 * (1 + rng.pick(50));
    const bool squareWave = rng.pick(2) != 0;
    const double capacitanceF = rng.pick(2) ? 100e-6 : 20e-6;
    // Windows may overlap and carry their own tones: where they do,
    // activeAt's first-added tie-break retunes the source mid-window.
    std::vector<attack::AttackWindow> windows;
    if (rng.pick(2)) {
        for (int i = 0, n = 1 + static_cast<int>(rng.pick(4)); i < n; ++i) {
            const double start = 0.002 * rng.pick(35);
            const double on = 0.002 * (1 + rng.pick(15));
            windows.push_back({start, start + on,
                               i == 0 ? freqHz : 1e6 * (1 + rng.pick(40)),
                               i == 0 ? powerDbm : 20.0 + rng.pick(16)});
        }
    }

    sim::SimConfig cfg;
    cfg.monitorKind = monitor;
    cfg.monitorSeed = seed;
    cfg.cap.capacitanceF = capacitanceF;
    cfg.cap.initialV = 3.3;
    cfg.coalesceQuanta = coalesceQuanta;
    if (adaptive)
        defense::presetByName("adaptive", &cfg.defense);
    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    std::unique_ptr<energy::Harvester> supply;
    if (squareWave)
        supply = std::make_unique<energy::SquareWaveHarvester>(3.3, 5.0,
                                                               0.01, 0.02);
    else
        supply = std::make_unique<energy::ConstantHarvester>(3.3, 5.0);
    sim::IntermittentSim simulation(program, dev, cfg, *supply, io);
    attack::RemoteRig rig(dev, monitor, distanceM);
    attack::EmiSource source(rig, freqHz, powerDbm);
    attack::AttackSchedule schedule(std::move(windows));
    simulation.setEmiSource(&source);
    if (!schedule.windows().empty())
        simulation.setAttackSchedule(&schedule);
    simulation.run(0.08);
    return {simulation.counters(), campaign::saveSimSnapshot(simulation, io)};
}

class CoalesceFuzzTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoalesceFuzzTest, RandomEmiUnchangedByBursts)
{
    const auto seed =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(GetParam()));
    const CoalesceRun on = runCoalesceCase(seed, 64);
    const CoalesceRun off = runCoalesceCase(seed, 0);
    EXPECT_EQ(off.counters.sim.coalescedQuanta +
                  off.counters.sim.coalescedSleepSamples,
              0u)
        << "seed " << seed;
    EXPECT_EQ(test::firstArchivedDifference(on.counters, off.counters), "")
        << "seed " << seed;
    EXPECT_EQ(on.counters.sim.quanta, off.counters.sim.quanta)
        << "seed " << seed;
    EXPECT_EQ(on.counters.sim.sleepSamples, off.counters.sim.sleepSamples)
        << "seed " << seed;
    EXPECT_TRUE(on.snapshot == off.snapshot)
        << "seed " << seed << ": simulation snapshot diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceFuzzTest,
                         ::testing::Range(1u, 65u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Completion-replay differential (DESIGN.md §12): an input-free victim
// under a random scheme, capacitor, supply and optional attack
// schedule, untraced so the block tier may replay its completions, must
// end with the step tier's archived counters and snapshot bytes.
// ---------------------------------------------------------------------

struct ReplayRun {
    sim::Counters counters;
    std::vector<std::uint8_t> snapshot;
};

ReplayRun
runReplayCase(std::uint32_t seed, sim::ExecBackend backend)
{
    static const char* const kInputFree[] = {
        "basicmath", "bitcnt", "blink",  "crc16", "crc32",        "dhrystone",
        "dijkstra",  "fft",    "qsort", "stringsearch", "xtea"};
    static const Scheme kSchemes[] = {Scheme::kNvp, Scheme::kRatchet,
                                      Scheme::kGecko};
    Rng rng(seed);
    const std::string workload =
        kInputFree[rng.pick(static_cast<std::uint32_t>(std::size(kInputFree)))];
    const Scheme scheme = kSchemes[rng.pick(3)];
    const double capacitanceF = 1e-4 * (1 + rng.pick(10));
    const std::uint32_t supplyKind = rng.pick(3);
    const bool attacked = rng.pick(2) == 1;
    const double freqHz = 1e6 * (1 + rng.pick(300));
    const double powerDbm = 25.0 + rng.pick(16);
    std::vector<attack::AttackWindow> windows;
    double t = 0.01 * (1 + rng.pick(4));
    for (int i = 0; attacked && i < 3; ++i) {
        const double on = 0.005 * (1 + rng.pick(5));
        windows.push_back({t, t + on, freqHz, powerDbm});
        t += on + 0.01 * (1 + rng.pick(4));
    }

    const CompiledProgram compiled =
        compiler::compile(workloads::build(workload), scheme);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.cap.capacitanceF = capacitanceF;
    cfg.monitorSeed = seed;
    sim::IoHub io;
    workloads::setupIo(workload, io);
    std::unique_ptr<energy::Harvester> supply;
    if (supplyKind == 0)
        supply = std::make_unique<energy::ConstantHarvester>(3.3, 5.0);
    else if (supplyKind == 1)
        supply = std::make_unique<energy::SquareWaveHarvester>(3.3, 5.0,
                                                               0.05, 0.05);
    else
        supply = std::make_unique<energy::TraceHarvester>(
            energy::makeRfTrace(3.3, 5.0, 4.0, 0.55, 0.3, seed));
    sim::IntermittentSim simulation(compiled, dev, cfg, *supply, io);
    simulation.machine().setExecBackend(backend);
    attack::RemoteRig rig(dev, cfg.monitorKind, 0.5);
    attack::EmiSource source(rig, freqHz, powerDbm);
    attack::AttackSchedule schedule(std::move(windows));
    if (attacked) {
        simulation.setEmiSource(&source);
        simulation.setAttackSchedule(&schedule);
    }
    simulation.run(0.3);
    return {simulation.counters(), campaign::saveSimSnapshot(simulation, io)};
}

class ReplayFuzzTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ReplayFuzzTest, RandomVictimsAgreeAcrossTiers)
{
    const auto seed =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(GetParam()));
    const ReplayRun step = runReplayCase(seed, sim::ExecBackend::kStep);
    const ReplayRun block = runReplayCase(seed, sim::ExecBackend::kBlock);
    EXPECT_EQ(step.counters.sim.replayedCompletions, 0u);
    EXPECT_EQ(test::firstArchivedDifference(block.counters, step.counters),
              "")
        << "seed " << seed;
    EXPECT_TRUE(block.snapshot == step.snapshot)
        << "seed " << seed << ": simulation snapshot diverged";
    std::cout << "[replay fuzz] seed " << seed << ": "
              << block.counters.sim.replayedCompletions << " of "
              << block.counters.exec.completions << " completions replayed\n";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayFuzzTest,
                         ::testing::Range(1u, 25u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Steady-loop fast-forward (DESIGN.md §12).  Random register-only
// self-loops: a counter r1 against r2 under a random latch, and a body
// of random ALU ops over r3..r8 that never reads r1 — draining shifts,
// masks and zero multiplies often reach a fixed point, accumulators and
// toggles never do.  Step and block run in lockstep under random
// budgets until the program halts.
// ---------------------------------------------------------------------

CompiledProgram
randomSelfLoop(std::uint32_t seed)
{
    Rng rng(seed * 2654435761u + 17);
    const ir::Opcode latches[] = {ir::Opcode::kBeq,  ir::Opcode::kBne,
                                  ir::Opcode::kBlt,  ir::Opcode::kBge,
                                  ir::Opcode::kBltu, ir::Opcode::kBgeu};
    const std::uint32_t steps[] = {1u, 0u - 1u, 3u, 0u - 3u, 1000u};
    const std::uint32_t anchors[] = {1000u, 0x7fffff00u, 0xffffff00u,
                                     rng.next()};
    ir::Opcode br = ir::Opcode::kBlt;
    bool lhs = true;
    std::uint32_t step = 1, bound = 3000, c0 = 0;
    for (int attempt = 0; attempt < 50; ++attempt) {
        br = latches[rng.pick(6)];
        lhs = rng.pick(2) == 0;
        step = steps[rng.pick(5)];
        bound = anchors[rng.pick(4)];
        c0 = bound - (50 + rng.pick(3000)) * step;
        if (test::latchTakenOneByOne(br, lhs, c0, step, bound, 4000) < 4000)
            break;
    }
    ir::ProgramBuilder b("steady_fuzz");
    b.movi(1, static_cast<std::int32_t>(c0))
        .movi(2, static_cast<std::int32_t>(bound));
    for (ir::Reg r = 3; r <= 8; ++r)
        b.movi(r, rng.pick(3) == 0 ? 0
                                   : static_cast<std::int32_t>(rng.next()));
    b.label("loop");
    const auto reg = [&] { return static_cast<ir::Reg>(3 + rng.pick(6)); };
    const auto src = [&] { return static_cast<ir::Reg>(2 + rng.pick(7)); };
    const int ops = 1 + static_cast<int>(rng.pick(5));
    for (int i = 0; i < ops; ++i) {
        const ir::Reg rd = reg();
        switch (rng.pick(10)) {
          case 0: b.shri(rd, rd, 1 + static_cast<std::int32_t>(rng.pick(4))); break;
          case 1: b.andi(rd, src(), static_cast<std::int32_t>(rng.pick(16))); break;
          case 2: b.muli(rd, src(), static_cast<std::int32_t>(rng.pick(3))); break;
          case 3: b.add(rd, src(), src()); break;
          case 4: b.xor_(rd, src(), src()); break;
          case 5: b.or_(rd, src(), src()); break;
          case 6: b.mov(rd, src()); break;
          case 7: b.movi(rd, static_cast<std::int32_t>(rng.pick(100))); break;
          case 8: b.addi(rd, rd, static_cast<std::int32_t>(rng.pick(3))); break;
          default: b.not_(rd, src()); break;
        }
    }
    if (step == 1u || step == 3u || step == 1000u)
        b.addi(1, 1, static_cast<std::int32_t>(step));
    else
        b.subi(1, 1, static_cast<std::int32_t>(0u - step));
    const ir::Reg x = lhs ? 1 : 2, y = lhs ? 2 : 1;
    switch (br) {
      case ir::Opcode::kBeq: b.beq(x, y, "loop"); break;
      case ir::Opcode::kBne: b.bne(x, y, "loop"); break;
      case ir::Opcode::kBlt: b.blt(x, y, "loop"); break;
      case ir::Opcode::kBge: b.bge(x, y, "loop"); break;
      case ir::Opcode::kBltu: b.bltu(x, y, "loop"); break;
      default: b.bgeu(x, y, "loop"); break;
    }
    for (ir::Reg r = 1; r <= 8; ++r)
        b.out(0, r);
    b.halt();
    CompiledProgram c;
    c.prog = b.take();
    c.scheme = Scheme::kNvp;
    return c;
}

TEST(SteadyLoopFuzzTest, RandomSelfLoopsAgreeAcrossTiers)
{
    int fired = 0;
    for (std::uint32_t seed = 1; seed <= 48; ++seed) {
        const CompiledProgram c = randomSelfLoop(seed);
        ASSERT_EQ(c.prog.validate(), "") << "seed " << seed;
        sim::Nvm stepNvm(1024), blockNvm(1024);
        sim::IoHub stepIo, blockIo;
        sim::Machine step(c, stepNvm, stepIo), block(c, blockNvm, blockIo);
        step.setExecBackend(sim::ExecBackend::kStep);
        block.setExecBackend(sim::ExecBackend::kBlock);
        Rng budgets(seed ^ 0x5eadu);
        for (int run = 0; run < 400 && !step.halted(); ++run) {
            const std::uint64_t budget = budgets.pick(4) == 0
                                             ? 1 + budgets.pick(20000)
                                             : 1 + budgets.pick(300);
            std::uint64_t stepUsed = 0, blockUsed = 0;
            ASSERT_EQ(block.run(budget, &blockUsed),
                      step.run(budget, &stepUsed))
                << "seed " << seed << " run " << run;
            ASSERT_EQ(blockUsed, stepUsed) << "seed " << seed;
            ASSERT_TRUE(block.stats == step.stats)
                << "seed " << seed << " run " << run << ": instrs "
                << block.stats.instrs << " vs " << step.stats.instrs;
            ASSERT_EQ(block.pc(), step.pc()) << "seed " << seed;
            ASSERT_EQ(block.regs(), step.regs()) << "seed " << seed;
            ASSERT_EQ(blockIo.output(0).values(), stepIo.output(0).values())
                << "seed " << seed;
        }
        ASSERT_TRUE(step.halted()) << "seed " << seed;
        EXPECT_EQ(step.steadyLoopIterations(), 0u);
        if (block.steadyLoopIterations() > 0)
            ++fired;
    }
    std::cout << "[steady fuzz] " << fired << " of 48 loops fast-forwarded\n";
    EXPECT_GE(fired, 8);
}

}  // namespace
}  // namespace gecko
