#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <tuple>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "campaign/snapshot.hpp"
#include "compiler/pipeline.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "fault/campaign.hpp"
#include "sim/intermittent_sim.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Differential suite for the quantum-coalescing fast path (DESIGN.md
 * §14).  Coalescing is a pure speed optimization: every test here runs
 * the same scenario with the fast path enabled and disabled and demands
 * bit-identical observables — machine ExecStats, registers, NVM image,
 * I/O, simulated time, and every simulation counter except the
 * coalescing telemetry itself.
 *
 * Unlike the trace-carrying differentials in fuzz_test (an installed
 * trace buffer is one of the guards that *disables* coalescing), these
 * scenarios run without a buffer so the fast path actually engages —
 * each scenario asserts `coalescedQuanta > 0` on the enabled arm where
 * the physics permit it.
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

    std::uint32_t pick(std::uint32_t n) { return next() % n; }

  private:
    std::uint32_t state_;
};

/** Everything observable about a finished run. */
struct Obs {
    sim::ExecStats stats;
    std::array<std::uint32_t, 16> regs{};
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
    double simTimeS = 0.0;
    double now = 0.0;
    std::uint64_t quanta = 0;
    std::uint64_t coalescedQuanta = 0;
    /// All SimStats counters that must not depend on coalescing.
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t>
        counters;
};

Obs
capture(sim::IntermittentSim& simulation, sim::IoHub& io)
{
    Obs o;
    o.stats = simulation.machine().stats;
    o.regs = simulation.machine().regs();
    o.out = io.output(0).values();
    o.memory = simulation.nvm().data();
    o.simTimeS = simulation.stats.simTimeS;
    o.now = simulation.now();
    o.quanta = simulation.stats.quanta;
    o.coalescedQuanta = simulation.stats.coalescedQuanta;
    const sim::SimStats& s = simulation.stats;
    o.counters = {s.reboots,
                  s.hardDeaths,
                  s.backupSignals,
                  s.wakeSignals,
                  s.ignoredBackups,
                  s.jitCheckpointAttempts,
                  s.jitCheckpointsComplete,
                  s.jitCheckpointsTorn,
                  s.jitCheckpointsAborted,
                  s.missedCheckpoints,
                  s.bootCycles};
    return o;
}

void
expectSame(const Obs& on, const Obs& off, const std::string& label)
{
    EXPECT_TRUE(on.stats == off.stats) << label << ": ExecStats diverged";
    EXPECT_EQ(on.regs, off.regs) << label;
    EXPECT_EQ(on.out, off.out) << label;
    EXPECT_EQ(on.memory, off.memory) << label;
    EXPECT_EQ(on.simTimeS, off.simTimeS) << label;
    EXPECT_EQ(on.now, off.now) << label;
    EXPECT_EQ(on.quanta, off.quanta) << label << ": quantum count";
    EXPECT_EQ(on.counters, off.counters) << label << ": SimStats counters";
}

// ---------------------------------------------------------------------
// Quiet-run engagement: a steady source with no attacker is the
// coalescing fast path's home turf.  The enabled arm must absorb most
// quanta into bursts and still match the disabled arm bit-for-bit.
// ---------------------------------------------------------------------

Obs
runQuiet(int coalesceQuanta, sim::ExecBackend backend)
{
    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 4096;
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    cfg.coalesceQuanta = coalesceQuanta;

    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::ConstantHarvester supply(3.3, 5.0);
    sim::IntermittentSim simulation(compiled,
                                    device::DeviceDb::msp430fr5994(), cfg,
                                    supply, io);
    simulation.machine().setExecBackend(backend);
    simulation.run(0.05);
    return capture(simulation, io);
}

TEST(CoalesceQuietTest, QuietRunEngagesAndMatchesSlowPath)
{
    for (sim::ExecBackend backend :
         {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
        const char* name = sim::execBackendName(backend);
        Obs on = runQuiet(64, backend);
        Obs off = runQuiet(0, backend);
        ASSERT_GT(on.stats.cycles, 0u) << name;
        EXPECT_GT(on.coalescedQuanta, 0u)
            << name << ": fast path never engaged on a quiet run";
        EXPECT_EQ(off.coalescedQuanta, 0u) << name;
        expectSame(on, off, name);
    }
}

// ---------------------------------------------------------------------
// Fuzzed EMI schedules: random tone windows switch the attack on and
// off mid-run.  Coalescing must engage only between windows (the sorted
// window query proves the horizon clean) and never change a single
// observable, under every execution backend.
// ---------------------------------------------------------------------

struct EmiEnv {
    sim::IoHub io;
    std::unique_ptr<energy::ConstantHarvester> supply;
    std::unique_ptr<sim::IntermittentSim> simulation;
    std::unique_ptr<attack::RemoteRig> rig;
    std::unique_ptr<attack::EmiSource> source;
    std::unique_ptr<attack::AttackSchedule> schedule;
};

/** Deterministic (seed-derived) build; identical every call. */
void
buildEmiEnv(EmiEnv& env, std::uint32_t seed, sim::ExecBackend backend,
            int coalesceQuanta)
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
    cfg.coalesceQuanta = coalesceQuanta;

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

Obs
runEmi(std::uint32_t seed, sim::ExecBackend backend, int coalesceQuanta)
{
    EmiEnv env;
    buildEmiEnv(env, seed, backend, coalesceQuanta);
    env.simulation->run(0.03);
    return capture(*env.simulation, env.io);
}

class CoalesceEmiFuzzTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoalesceEmiFuzzTest, RandomEmiSchedulesUnchangedByCoalescing)
{
    auto seed =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(GetParam()));
    std::uint64_t engaged = 0;
    for (sim::ExecBackend backend :
         {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
        const char* name = sim::execBackendName(backend);
        Obs on = runEmi(seed, backend, 64);
        Obs off = runEmi(seed, backend, 0);
        ASSERT_GT(on.stats.cycles, 0u) << name << " seed " << seed;
        EXPECT_EQ(off.coalescedQuanta, 0u) << name << " seed " << seed;
        expectSame(on, off,
                   std::string(name) + " seed " + std::to_string(seed));
        engaged += on.coalescedQuanta;
    }
    // The schedules leave quiet gaps between windows; at least some of
    // them must have been absorbed by the fast path.
    EXPECT_GT(engaged, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceEmiFuzzTest,
                         ::testing::Range(1u, 9u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Fault-injection differential: every injector class, replayed with
// coalescing on and off, must produce the identical CaseResult — the
// fast path may never move an injection point, change an outcome, or
// perturb a defence counter.  runCase resolves the coalescing limit
// from GECKO_COALESCE at simulator construction, so the arms toggle it
// through the environment.
// ---------------------------------------------------------------------

fault::CaseResult
runCaseWithCoalesce(const fault::CaseSpec& spec, const char* limit)
{
    ::setenv("GECKO_COALESCE", limit, 1);
    fault::CaseResult r =
        fault::runCase(spec, 0.5, 0, sim::ExecBackend::kBlock);
    ::unsetenv("GECKO_COALESCE");
    return r;
}

TEST(CoalesceInjectorTest, AllInjectorsUnaffectedByCoalescing)
{
    using fault::CaseResult;
    using fault::CaseSpec;
    using fault::InjectorKind;
    const InjectorKind kinds[] = {
        InjectorKind::kBitFlip,       InjectorKind::kMultiBitFlip,
        InjectorKind::kTornWrite,     InjectorKind::kAckCorrupt,
        InjectorKind::kStaleImage,    InjectorKind::kMonitorStuck,
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
                exp::mixSeed(0xc0a1u, static_cast<std::uint64_t>(kind)));

            CaseResult on = runCaseWithCoalesce(spec, "64");
            CaseResult off = runCaseWithCoalesce(spec, "0");
            const char* inj = fault::injectorName(kind);
            EXPECT_EQ(on.outcome, off.outcome) << inj;
            EXPECT_EQ(on.detail, off.detail) << inj;
            EXPECT_EQ(on.injectAt, off.injectAt) << inj;
            EXPECT_EQ(on.word, off.word) << inj;
            EXPECT_EQ(on.corruptedRestores, off.corruptedRestores) << inj;
            EXPECT_EQ(on.crcRejects, off.crcRejects) << inj;
            EXPECT_EQ(on.slotRepairs, off.slotRepairs) << inj;
            EXPECT_EQ(on.ckptSaveRetries, off.ckptSaveRetries) << inj;
            EXPECT_EQ(on.retriesExhausted, off.retriesExhausted) << inj;
            EXPECT_EQ(on.integrityDegradations, off.integrityDegradations)
                << inj;
            EXPECT_EQ(on.defenseEscalations, off.defenseEscalations)
                << inj;
            EXPECT_EQ(on.defenseRatchetTrips, off.defenseRatchetTrips)
                << inj;
            EXPECT_EQ(on.defended, off.defended) << inj;
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot/resume differential: serializing the simulation between
// run() slices — burst state never spans a slice; a coalesced burst is
// committed before stepRunning returns — tearing the world down, and
// restoring into a fresh build must be invisible with the fast path
// enabled.  The restored run re-proves its bursts from scratch (the
// coalescing telemetry is deliberately not archived), so this also
// pins down that a cold burst proof reaches the same trajectory.
// ---------------------------------------------------------------------

Obs
runEmiSliced(std::uint32_t seed, int snapshotAt)
{
    auto env = std::make_unique<EmiEnv>();
    buildEmiEnv(*env, seed, sim::ExecBackend::kBlock, 64);
    for (int k = 0; k < 4; ++k) {
        env->simulation->run(0.005);
        if (k + 1 == snapshotAt) {
            std::vector<std::uint8_t> blob =
                campaign::saveSimSnapshot(*env->simulation, env->io);
            env = std::make_unique<EmiEnv>();
            buildEmiEnv(*env, seed, sim::ExecBackend::kBlock, 64);
            campaign::restoreSimSnapshot(*env->simulation, env->io, blob);
        }
    }
    return capture(*env->simulation, env->io);
}

class CoalesceSnapshotTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoalesceSnapshotTest, SnapshotRestoreInvisibleWithCoalescing)
{
    auto seed =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(GetParam()));
    Obs ref = runEmiSliced(seed, -1);
    ASSERT_GT(ref.stats.cycles, 0u) << "seed " << seed;
    for (int at : {1, 2, 3}) {
        Obs obs = runEmiSliced(seed, at);
        // The telemetry counters restart at zero on restore, so only
        // the architectural observables are compared — via expectSame
        // minus the quantum counters.
        EXPECT_TRUE(obs.stats == ref.stats)
            << "snapshot@" << at << " seed " << seed;
        EXPECT_EQ(obs.regs, ref.regs) << "@" << at << " seed " << seed;
        EXPECT_EQ(obs.out, ref.out) << "@" << at << " seed " << seed;
        EXPECT_EQ(obs.memory, ref.memory)
            << "@" << at << " seed " << seed;
        EXPECT_EQ(obs.simTimeS, ref.simTimeS)
            << "@" << at << " seed " << seed;
        EXPECT_EQ(obs.now, ref.now) << "@" << at << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceSnapshotTest,
                         ::testing::Range(1u, 5u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gecko
