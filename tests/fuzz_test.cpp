#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>

#include "attack/attack_schedule.hpp"
#include "campaign/snapshot.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "compiler/pipeline.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "fault/campaign.hpp"
#include "workloads/workloads.hpp"
#include "ir/builder.hpp"
#include "runtime/gecko_runtime.hpp"
#include "sim/intermittent_sim.hpp"
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
    sim::ExecStats stats;
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
    obs.stats = simulation.machine().stats;
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
    ASSERT_GT(ref.stats.cycles, 0u);
    TierObservation obs = runEmiTier(seed, sim::ExecBackend::kBlock);
    EXPECT_TRUE(obs.stats == ref.stats)
        << "block diverged in ExecStats (seed " << seed << ")";
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
    obs.stats = env->simulation->machine().stats;
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
        ASSERT_GT(ref.stats.cycles, 0u) << name << " seed " << seed;
        for (int at : {1, 2, 3}) {
            TierObservation obs = runEmiSliced(seed, backend, at);
            EXPECT_TRUE(obs.stats == ref.stats)
                << name << " snapshot@" << at
                << " diverged in ExecStats (seed " << seed << ")";
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

TEST(BackendFaultDifferentialTest, AllInjectorsAgreeAcrossTiers)
{
    // Every injector class, replayed bit-identically per tier: the
    // CaseResult (outcome, injection coordinates, defence counters) and
    // the victim's trace stream must not depend on the dispatch
    // strategy.
    using fault::CaseResult;
    using fault::CaseSpec;
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
            CaseSpec spec;
            spec.injector = kind;
            spec.scheme = scheme;
            spec.workload =
                fault::isSimLevel(kind) ? "sensor_loop" : "crc16";
            spec.seed = exp::applyGlobalSeed(
                exp::mixSeed(0xd1ffu, static_cast<std::uint64_t>(kind)));

            // Warm the golden-oracle cache outside any trace buffer so
            // the first tier doesn't record the oracle's own events.
            fault::runCase(spec, 0.5, 0, sim::ExecBackend::kBlock);

            trace::Buffer refBuffer, buffer;
            CaseResult ref, r;
            {
                trace::BufferScope scope(&refBuffer);
                ref = fault::runCase(spec, 0.5, 0, sim::ExecBackend::kStep);
            }
            {
                trace::BufferScope scope(&buffer);
                r = fault::runCase(spec, 0.5, 0, sim::ExecBackend::kBlock);
            }
            const char* inj = fault::injectorName(kind);
            EXPECT_EQ(r.outcome, ref.outcome) << inj;
            EXPECT_EQ(r.detail, ref.detail) << inj;
            EXPECT_EQ(r.injectAt, ref.injectAt) << inj;
            EXPECT_EQ(r.word, ref.word) << inj;
            EXPECT_EQ(r.corruptedRestores, ref.corruptedRestores) << inj;
            EXPECT_EQ(r.crcRejects, ref.crcRejects) << inj;
            EXPECT_EQ(r.slotRepairs, ref.slotRepairs) << inj;
            EXPECT_EQ(r.ckptSaveRetries, ref.ckptSaveRetries) << inj;
            EXPECT_EQ(r.retriesExhausted, ref.retriesExhausted) << inj;
            EXPECT_EQ(r.defenseEscalations, ref.defenseEscalations) << inj;
            EXPECT_EQ(r.defended, ref.defended) << inj;
            EXPECT_TRUE(buffer.events() == refBuffer.events())
                << inj << " diverged in the trace stream ("
                << buffer.events().size() << " vs "
                << refBuffer.events().size() << " events)";
        }
    }
}

}  // namespace
}  // namespace gecko
