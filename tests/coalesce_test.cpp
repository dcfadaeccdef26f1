#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "campaign/scenario.hpp"
#include "campaign/snapshot.hpp"
#include "compiler/pipeline.hpp"
#include "defense/controller.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "fault/campaign.hpp"
#include "sim/intermittent_sim.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
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
    /// Every stats struct; the bursts fast-forward the defense
    /// controller too, so its fields must match like the rest.
    sim::Counters counters;
    std::array<std::uint32_t, 16> regs{};
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
    double now = 0.0;
    /// The full simulation snapshot: latches, jitter sequence, energy,
    /// controller internals — everything a resumed run would see.
    std::vector<std::uint8_t> snapshot;
};

Obs
capture(sim::IntermittentSim& simulation, sim::IoHub& io)
{
    Obs o;
    o.counters = simulation.counters();
    o.regs = simulation.machine().regs();
    o.out = io.output(0).values();
    o.memory = simulation.nvm().data();
    o.now = simulation.now();
    o.snapshot = campaign::saveSimSnapshot(simulation, io);
    return o;
}

/**
 * The architectural observables and every archived counter agree (the
 * burst diagnostics restart at zero on a restore, so they are left
 * out).
 */
void
expectSameState(const Obs& a, const Obs& b, const std::string& label)
{
    EXPECT_EQ(test::firstArchivedDifference(a.counters, b.counters), "")
        << label;
    EXPECT_EQ(a.regs, b.regs) << label;
    EXPECT_EQ(a.out, b.out) << label;
    EXPECT_EQ(a.memory, b.memory) << label;
    EXPECT_EQ(a.now, b.now) << label;
}

/** Coalescing on vs off: the same state, quanta and snapshot bytes. */
void
expectSame(const Obs& on, const Obs& off, const std::string& label)
{
    expectSameState(on, off, label);
    EXPECT_EQ(on.counters.sim.quanta, off.counters.sim.quanta)
        << label << ": quantum count";
    EXPECT_TRUE(on.snapshot == off.snapshot)
        << label << ": simulation snapshot diverged";
}

TEST(CoalesceLimitTest, GeckoCoalesceParsesStrictly)
{
    EXPECT_EQ(sim::parseCoalesceLimit(nullptr), 1024);
    EXPECT_EQ(sim::parseCoalesceLimit(""), 1024);
    EXPECT_EQ(sim::parseCoalesceLimit("0"), 0);
    EXPECT_EQ(sim::parseCoalesceLimit("1"), 1);
    EXPECT_EQ(sim::parseCoalesceLimit("64"), 64);
    EXPECT_EQ(sim::parseCoalesceLimit("007"), 7);
    // Above the cap clamps, however long the digit string.
    EXPECT_EQ(sim::parseCoalesceLimit("65536"), 65536);
    EXPECT_EQ(sim::parseCoalesceLimit("65537"), 65536);
    EXPECT_EQ(sim::parseCoalesceLimit("99999999999999999999999"), 65536);
    // Anything else used to read as 0 (fast path silently off).
    for (const char* bad : {"abc", "1e3", "-1", "+8", " 8", "8 ", "0x10",
                            "6.4", "64k"}) {
        EXPECT_THROW(sim::parseCoalesceLimit(bad), std::invalid_argument)
            << bad;
    }
    try {
        sim::parseCoalesceLimit("abc");
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("GECKO_COALESCE=abc"),
                  std::string::npos)
            << e.what();
    }
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
        ASSERT_GT(on.counters.exec.cycles, 0u) << name;
        EXPECT_GT(on.counters.sim.coalescedQuanta, 0u)
            << name << ": fast path never engaged on a quiet run";
        EXPECT_EQ(off.counters.sim.coalescedQuanta, 0u) << name;
        expectSame(on, off, name);
    }
}

TEST(CoalesceQuietTest, DrawChangeAtAFixedPointUnchangedByBursts)
{
    // The march reuses a step's result only when its input energy *and*
    // draw repeat.  Here a quiet quantum spans 5120 + 1/8 cycles, so
    // every eighth one draws a cycle more, and a fast RC (5 ohm into
    // 20 uF against a 640 us quantum) settles the rail to an exact fixed
    // point in between: the heavier draw starts from the very energy the
    // light ones kept returning.  Forty slice ends cut the bursts at
    // every phase of that pattern.
    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    sim::SimConfig cfg;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    device::DeviceProfile dev = device::DeviceDb::msp430fr5994();
    const double quietDt = cfg.quietStride / dev.adcSampleHz;
    dev.power.clockHz = (5120.0 + 1.0 / 8) / quietDt;
    const auto runSliced = [&](int coalesceQuanta) {
        cfg.coalesceQuanta = coalesceQuanta;
        sim::IoHub io;
        workloads::setupIo("sensor_loop", io);
        energy::ConstantHarvester supply(3.3, 5.0);
        sim::IntermittentSim simulation(compiled, dev, cfg, supply, io);
        std::vector<Obs> slices;
        for (int i = 0; i < 40; ++i) {
            simulation.run(0.0123);
            slices.push_back(capture(simulation, io));
        }
        return slices;
    };
    const std::vector<Obs> on = runSliced(64);
    const std::vector<Obs> off = runSliced(0);
    EXPECT_GT(on.back().counters.sim.coalescedQuanta * 2,
              on.back().counters.sim.quanta);
    for (std::size_t i = 0; i < on.size(); ++i)
        expectSame(on[i], off[i], "slice " + std::to_string(i));
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
        ASSERT_GT(on.counters.exec.cycles, 0u) << name << " seed " << seed;
        EXPECT_EQ(off.counters.sim.coalescedQuanta, 0u)
            << name << " seed " << seed;
        expectSame(on, off,
                   std::string(name) + " seed " + std::to_string(seed));
        engaged += on.counters.sim.coalescedQuanta;
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
            EXPECT_EQ(test::firstArchivedDifference(on.counters,
                                                    off.counters),
                      "")
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
    ASSERT_GT(ref.counters.exec.cycles, 0u) << "seed " << seed;
    for (int at : {1, 2, 3}) {
        Obs obs = runEmiSliced(seed, at);
        expectSameState(obs, ref,
                        "snapshot@" + std::to_string(at) + " seed " +
                            std::to_string(seed));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceSnapshotTest,
                         ::testing::Range(1u, 5u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// The saturated EMI storm (DESIGN.md §14): the attack_sweep comparator
// point — FR5994 comparator path, 5 MHz at its resonance, 35 dBm from
// 0.1 m, on the 1 Hz square-wave outage supply.  The volt-scale tone
// drives both comparators through their thresholds on every window, so
// each sample trips backup and wake.  Storm bursts (running quanta whose
// backups are ignored: Ratchet, GECKO once detection disarmed JIT) and
// locked-out sleep bursts (every scheme, while V_CC sits below
// V_off + lockout) must engage and change nothing — including the
// controller the adaptive victim fast-forwards, and the DCO jitter
// sequence the envelope reads must not advance.
// ---------------------------------------------------------------------

enum class Victim { kNvp, kRatchet, kGeckoStatic, kGeckoAdaptive };

const char*
victimName(Victim v)
{
    switch (v) {
      case Victim::kNvp: return "nvp";
      case Victim::kRatchet: return "ratchet";
      case Victim::kGeckoStatic: return "gecko-static";
      case Victim::kGeckoAdaptive: return "gecko-adaptive";
    }
    return "?";
}

const CompiledProgram&
stormProgram(Victim v)
{
    static const CompiledProgram nvp = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kNvp);
    static const CompiledProgram ratchet = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kRatchet);
    static const CompiledProgram gecko = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    switch (v) {
      case Victim::kNvp: return nvp;
      case Victim::kRatchet: return ratchet;
      default: return gecko;
    }
}

struct StormEnv {
    sim::IoHub io;
    std::unique_ptr<energy::Harvester> supply;
    std::unique_ptr<attack::RemoteRig> rig;
    std::unique_ptr<attack::EmiSource> source;
    std::unique_ptr<sim::IntermittentSim> simulation;
};

/**
 * The attack_sweep comparator victim, or with `monitor` and `freqHz`
 * one of its ADC points.  `dark` swaps the square wave for a dead
 * supply with the buffer starting below V_off + lockout: every sample
 * is a forged wake the brown-out lockout refuses.
 */
void
buildStormEnv(StormEnv& env, Victim victim, bool dark,
              sim::ExecBackend backend, int coalesceQuanta,
              const device::DeviceProfile& dev =
                  device::DeviceDb::msp430fr5994(),
              analog::MonitorKind monitor = analog::MonitorKind::kComparator,
              double freqHz = 5e6)
{
    sim::SimConfig cfg;
    cfg.monitorKind = monitor;
    cfg.cap.capacitanceF = 1e-3;
    cfg.cap.initialV = dark ? 2.05 : 3.3;
    cfg.coalesceQuanta = coalesceQuanta;
    if (victim == Victim::kGeckoAdaptive)
        defense::presetByName("adaptive", &cfg.defense);

    workloads::setupIo("sensor_loop", env.io);
    if (dark)
        env.supply = std::make_unique<energy::ConstantHarvester>(0.0, 5.0);
    else
        env.supply = std::make_unique<energy::SquareWaveHarvester>(
            3.3, 5.0, 0.5, 0.5);
    env.simulation = std::make_unique<sim::IntermittentSim>(
        stormProgram(victim), dev, cfg, *env.supply, env.io);
    env.simulation->machine().setExecBackend(backend);
    env.rig = std::make_unique<attack::RemoteRig>(dev, cfg.monitorKind, 0.1);
    env.source = std::make_unique<attack::EmiSource>(*env.rig, freqHz, 35.0);
    env.simulation->setEmiSource(env.source.get());
}

Obs
runStorm(Victim victim, bool dark, sim::ExecBackend backend,
         int coalesceQuanta, double seconds)
{
    StormEnv env;
    buildStormEnv(env, victim, dark, backend, coalesceQuanta);
    env.simulation->run(seconds);
    return capture(*env.simulation, env.io);
}

TEST(CoalesceStormTest, AttackSweepComparatorPointUnchangedByBursts)
{
    // 1.2 s: the first on-phase (storm running quanta), the dark half
    // (brown-out, then locked-out sleep) and the recharge into the
    // second on-phase.
    for (Victim victim : {Victim::kNvp, Victim::kRatchet,
                          Victim::kGeckoStatic, Victim::kGeckoAdaptive}) {
        for (sim::ExecBackend backend :
             {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
            const std::string label = std::string(victimName(victim)) +
                                      "/" + sim::execBackendName(backend);
            Obs on = runStorm(victim, false, backend, 64, 1.2);
            Obs off = runStorm(victim, false, backend, 0, 1.2);
            const sim::SimStats& onSim = on.counters.sim;
            const sim::SimStats& offSim = off.counters.sim;
            ASSERT_GT(on.counters.exec.cycles, 0u) << label;
            EXPECT_EQ(offSim.coalescedQuanta, 0u) << label;
            EXPECT_EQ(offSim.coalescedSleepSamples, 0u) << label;
            expectSame(on, off, label);
            // Every scheme sleeps locked out through the dark half.
            EXPECT_GT(onSim.coalescedSleepSamples, 0u) << label;
            // Backups are ignored once JIT is off: from the start under
            // Ratchet, after detection under the adaptive controller.
            if (victim == Victim::kRatchet ||
                victim == Victim::kGeckoAdaptive) {
                EXPECT_GT(onSim.coalescedQuanta * 2, onSim.quanta)
                    << label << ": " << onSim.coalescedQuanta << " of "
                    << onSim.quanta << " quanta coalesced";
            }
            // NVP checkpoints on every forged backup: nothing to fuse.
            if (victim == Victim::kNvp) {
                EXPECT_EQ(onSim.coalescedQuanta, 0u) << label;
            }
        }
    }
}

TEST(CoalesceStormTest, ProbeCannotReenableInsideAStormBurst)
{
    // A storm quantum runs the machine and onProgress before its backup
    // is reported.  With a slow comparator check (1 ms quanta, longer
    // than a region) the first quantum after a rollback boot completes
    // the two commits that conclude the re-enable probe, and — no
    // backup seen yet — turns JIT back on, so its own backup then
    // checkpoints.  A burst folding that quantum in would report the
    // backup first and miss the re-enable; the guard must leave it to
    // the slow path.
    device::DeviceProfile dev = device::DeviceDb::msp430fr5994();
    dev.compCheckHz = 1e3;
    const auto run = [&dev](int coalesceQuanta) {
        StormEnv env;
        buildStormEnv(env, Victim::kGeckoStatic, false,
                      sim::ExecBackend::kBlock, coalesceQuanta, dev);
        env.simulation->run(0.3);
        return capture(*env.simulation, env.io);
    };
    Obs on = run(64);
    Obs off = run(0);
    expectSame(on, off, "slow comparator");
    EXPECT_GT(off.counters.runtime.jitReenables, 0u)
        << "the probe never re-enabled JIT: the hazard is not exercised";
}

TEST(CoalesceStormTest, DarkSupplyLockedOutSleepUnchangedByBursts)
{
    for (Victim victim : {Victim::kNvp, Victim::kGeckoAdaptive}) {
        const std::string label = victimName(victim);
        Obs on = runStorm(victim, true, sim::ExecBackend::kBlock, 64, 0.05);
        Obs off = runStorm(victim, true, sim::ExecBackend::kBlock, 0, 0.05);
        EXPECT_EQ(on.counters.exec.cycles, 0u) << label << ": never boots";
        expectSame(on, off, label);
        EXPECT_GT(on.counters.sim.coalescedSleepSamples, 0u) << label;
    }
}

TEST(CoalesceStormTest, SnapshotSlicesStormMidBurst)
{
    // Slices of an odd length cut storm and sleep bursts mid-way; each
    // cut is saved, torn down and restored into a fresh build.  The
    // resumed run must land on the uninterrupted one's state.
    constexpr double kSliceS = 0.0123457;
    constexpr int kSlices = 60;
    auto env = std::make_unique<StormEnv>();
    buildStormEnv(*env, Victim::kGeckoAdaptive, false,
                  sim::ExecBackend::kBlock, 64);
    for (int k = 0; k < kSlices; ++k) {
        env->simulation->run(kSliceS);
        std::vector<std::uint8_t> blob =
            campaign::saveSimSnapshot(*env->simulation, env->io);
        env = std::make_unique<StormEnv>();
        buildStormEnv(*env, Victim::kGeckoAdaptive, false,
                      sim::ExecBackend::kBlock, 64);
        campaign::restoreSimSnapshot(*env->simulation, env->io, blob);
    }
    // Reference: the same slices, slow path only, never interrupted.
    StormEnv sliced;
    buildStormEnv(sliced, Victim::kGeckoAdaptive, false,
                  sim::ExecBackend::kBlock, 0);
    for (int k = 0; k < kSlices; ++k)
        sliced.simulation->run(kSliceS);

    Obs resumed = capture(*env->simulation, env->io);
    Obs reference = capture(*sliced.simulation, sliced.io);
    ASSERT_GT(reference.counters.exec.cycles, 0u);
    expectSameState(resumed, reference, "storm slices");
    EXPECT_TRUE(resumed.snapshot == reference.snapshot);
}

// ---------------------------------------------------------------------
// Evaluated bursts (DESIGN.md §14): an ADC point read under a tone lands
// at a DCO-jittered carrier phase, so a strong tone certifies nothing;
// each skipped sample is evaluated on trial copies instead, up to the
// first one that is not inert.  A weak tone is covered by the
// bounded-tone certificate.  Both must change nothing.
// ---------------------------------------------------------------------

/** The attack_sweep ADC points: board and its ADC-path resonance. */
struct AdcPoint {
    const char* device;
    double freqHz;
};

constexpr AdcPoint kAdcPoints[] = {{"MSP430FR5994", 27e6},
                                   {"STM32L552ZE", 17e6}};

void
buildAdcEnv(StormEnv& env, const AdcPoint& point, Victim victim,
            sim::ExecBackend backend, int coalesceQuanta)
{
    buildStormEnv(env, victim, false, backend, coalesceQuanta,
                  device::DeviceDb::byName(point.device),
                  analog::MonitorKind::kAdc, point.freqHz);
}

TEST(CoalesceEvaluatedTest, AttackSweepAdcPointUnchangedByBursts)
{
    // 1.2 s: the first on-phase (forged backups and wakes while
    // running), the dark half and the recharge into the second.
    for (const AdcPoint& point : kAdcPoints) {
        for (Victim victim : {Victim::kNvp, Victim::kRatchet,
                              Victim::kGeckoStatic, Victim::kGeckoAdaptive}) {
            for (sim::ExecBackend backend :
                 {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
                const std::string label =
                    std::string(point.device) + "/" + victimName(victim) +
                    "/" + sim::execBackendName(backend);
                const auto run = [&](int coalesceQuanta) {
                    StormEnv env;
                    buildAdcEnv(env, point, victim, backend, coalesceQuanta);
                    env.simulation->run(1.2);
                    return capture(*env.simulation, env.io);
                };
                Obs on = run(64);
                Obs off = run(0);
                const sim::SimStats& onSim = on.counters.sim;
                ASSERT_GT(on.counters.exec.cycles, 0u) << label;
                EXPECT_EQ(off.counters.sim.coalescedQuanta, 0u) << label;
                EXPECT_EQ(off.counters.sim.coalescedSleepSamples, 0u)
                    << label;
                expectSame(on, off, label);
                EXPECT_GT(onSim.coalescedSleepSamples, 0u) << label;
                // Running backups are inert once JIT is off (from the
                // start under Ratchet, after detection under GECKO).
                if (victim != Victim::kNvp) {
                    EXPECT_GT(onSim.coalescedQuanta * 2, onSim.quanta)
                        << label << ": " << onSim.coalescedQuanta << " of "
                        << onSim.quanta << " quanta coalesced";
                }
            }
        }
    }
}

TEST(CoalesceEvaluatedTest, SnapshotSlicesCutEvaluatedBursts)
{
    // The adaptive victim at the FR5994 ADC point: odd slices cut
    // evaluated running and sleep bursts mid-way, and each cut is
    // saved, torn down and restored into a fresh build.  The trial
    // copies live on the stack, so the resumed run must land on the
    // uninterrupted one's state.
    constexpr double kSliceS = 0.0123457;
    constexpr int kSlices = 60;
    const AdcPoint& point = kAdcPoints[0];
    auto env = std::make_unique<StormEnv>();
    buildAdcEnv(*env, point, Victim::kGeckoAdaptive,
                sim::ExecBackend::kBlock, 64);
    for (int k = 0; k < kSlices; ++k) {
        env->simulation->run(kSliceS);
        std::vector<std::uint8_t> blob =
            campaign::saveSimSnapshot(*env->simulation, env->io);
        env = std::make_unique<StormEnv>();
        buildAdcEnv(*env, point, Victim::kGeckoAdaptive,
                    sim::ExecBackend::kBlock, 64);
        campaign::restoreSimSnapshot(*env->simulation, env->io, blob);
    }
    StormEnv sliced;
    buildAdcEnv(sliced, point, Victim::kGeckoAdaptive,
                sim::ExecBackend::kBlock, 0);
    for (int k = 0; k < kSlices; ++k)
        sliced.simulation->run(kSliceS);

    Obs resumed = capture(*env->simulation, env->io);
    Obs reference = capture(*sliced.simulation, sliced.io);
    ASSERT_GT(reference.counters.exec.cycles, 0u);
    ASSERT_GT(reference.counters.defense.samples, 0u);
    expectSameState(resumed, reference, "evaluated slices");
    EXPECT_TRUE(resumed.snapshot == reference.snapshot);
}

TEST(CoalesceEvaluatedTest, Fig05WeakTonePointsUnchangedByBursts)
{
    // fig05's setting: an NVP victim on the DC bench supply, 35 dBm
    // radiated from 5 m at the ADC path.  At 20 MHz the FR5994 sees a
    // 56 mV tone that never moves a latch (bounded-tone certificate);
    // the STM32L552 sees 0.46 V, which forges wakes off the 3.3 V rail
    // (evaluated bursts).
    static const CompiledProgram nvp = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kNvp);
    for (const char* device : {"MSP430FR5994", "STM32L552ZE"}) {
        const auto& dev = device::DeviceDb::byName(device);
        const auto run = [&dev](int coalesceQuanta) {
            sim::SimConfig cfg;
            cfg.cap.capacitanceF = 1e-3;
            cfg.cap.initialV = 3.3;
            cfg.coalesceQuanta = coalesceQuanta;
            sim::IoHub io;
            workloads::setupIo("sensor_loop", io);
            energy::ConstantHarvester supply(3.3, 5.0);
            sim::IntermittentSim simulation(nvp, dev, cfg, supply, io);
            attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 5.0);
            attack::EmiSource source(rig, 20e6, 35.0);
            simulation.setEmiSource(&source);
            simulation.run(0.04);
            return capture(simulation, io);
        };
        Obs on = run(64);
        Obs off = run(0);
        const sim::SimStats& onSim = on.counters.sim;
        ASSERT_GT(on.counters.exec.cycles, 0u) << device;
        expectSame(on, off, device);
        EXPECT_GE(onSim.coalescedQuanta * 10, onSim.quanta * 9)
            << device << ": " << onSim.coalescedQuanta << " of "
            << onSim.quanta << " quanta coalesced";
    }
}

TEST(CoalesceEvaluatedTest, ControllerStepsDownInsideAnEvaluatedBurst)
{
    // A half-volt tone (27 MHz, 12 dBm from 0.1 m) drives the adaptive
    // controller to kUnderAttack without forging a backup off the high
    // rail.  The schedule then retunes the source to a 51 mV tone: the
    // controller calms and steps down to kSuspicious, re-allowing JIT,
    // while the dark supply drags the rail to V_backup.  Swept over the
    // switch time, the step-down lands inside an evaluated running
    // burst shortly before the backup; the burst must stop at the mode
    // change so the backup checkpoints.
    static const CompiledProgram gecko = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    std::uint64_t checkpointed = 0;
    for (int i = 0; i < 100; ++i) {
        const double tSwitch = 0.0295 + 10e-6 * i;
        const auto run = [&](int coalesceQuanta) {
            sim::SimConfig cfg;
            cfg.cap.capacitanceF = 100e-6;
            cfg.cap.initialV = 3.3;
            cfg.coalesceQuanta = coalesceQuanta;
            defense::presetByName("adaptive", &cfg.defense);
            sim::IoHub io;
            workloads::setupIo("sensor_loop", io);
            energy::SquareWaveHarvester supply(3.3, 5.0, 0.02, 0.05);
            sim::IntermittentSim simulation(gecko, dev, cfg, supply, io);
            attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.1);
            attack::EmiSource source(rig, 27e6, 12.0);
            attack::AttackSchedule schedule(
                {{0.0, tSwitch, 27e6, 12.0}, {tSwitch, 1.0, 40e6, 35.0}});
            simulation.setEmiSource(&source);
            simulation.setAttackSchedule(&schedule);
            simulation.run(0.04);
            return capture(simulation, io);
        };
        Obs on = run(64);
        Obs off = run(0);
        const std::string label = "switch at " + std::to_string(tSwitch);
        expectSame(on, off, label);
        checkpointed += off.counters.sim.jitCheckpointAttempts;
    }
    EXPECT_GT(checkpointed, 0u);
}

TEST(CoalesceEvaluatedTest, SustainedToneRatchetUnchangedByBursts)
{
    // fig_adaptive's ADC arm (progress_test's sustained-EMI scenario):
    // forged wakes boot the node at barely-above-lockout voltage until
    // the energy-debt ratchet trips to kDegraded, whose recharge dwell
    // defers forged wakes — wakeAllowed runs on the controller copy for
    // every one below the lockout.  The second schedule retunes the
    // source to a weak tone after the trip, so the degraded controller
    // calms down under evaluated bursts and may leave kDegraded only
    // after a commit.
    const auto& dev = device::DeviceDb::msp430fr5994();
    static const CompiledProgram sensorApp = [] {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 60000;
        return compiler::compile(workloads::build("sensor_app"),
                                 Scheme::kGecko, pconfig);
    }();
    const std::vector<attack::AttackWindow> schedules[] = {
        {{1.0, 6.0, 27e6, 38.0}},
        {{1.0, 1.6, 27e6, 38.0}, {1.6, 6.0, 40e6, 20.0}},
    };
    for (const auto& windows : schedules) {
        const auto run = [&](int coalesceQuanta) {
            sim::IoHub io;
            workloads::setupIo("sensor_app", io);
            energy::ConstantHarvester wave(3.3, 600.0);
            sim::SimConfig cfg;
            cfg.cap.capacitanceF = 1e-3;
            cfg.coalesceQuanta = coalesceQuanta;
            cfg.defense.enabled = true;
            cfg.defense.energyDebtBudgetJ = 2.5e-3;
            attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.5);
            attack::EmiSource source(rig, 27e6, 38.0);
            attack::AttackSchedule schedule(windows);
            sim::IntermittentSim simulation(sensorApp, dev, cfg, wave, io);
            simulation.setEmiSource(&source);
            simulation.setAttackSchedule(&schedule);
            simulation.run(4.0);
            return capture(simulation, io);
        };
        const std::string label =
            std::to_string(windows.size()) + " window(s)";
        Obs on = run(64);
        Obs off = run(0);
        expectSame(on, off, label);
        EXPECT_GE(off.counters.defense.ratchetTrips, 1u) << label;
        EXPECT_GT(on.counters.sim.coalescedSleepSamples, 0u) << label;
        if (windows.size() == 1) {
            EXPECT_GT(off.counters.defense.wakesDeferred, 0u) << label;
        }
    }
}

// ---------------------------------------------------------------------
// Zone reads (DESIGN.md §14 "Zone reads"): a point read under a tone
// takes its event from a bounded libm-free sine unless the read's value
// is observed.  Each victim runs three ways — a trace buffer installed
// (every read exact, no bursts), bursts off (zone reads on the slow
// path) and the default (zone reads in evaluated bursts too) — and the
// three must agree on every archived counter, the snapshot, the NVM
// and the outputs.  The attack_sweep ADC points run NVP and adaptive
// GECKO victims past 1 s, where the carrier phase has passed the
// 1.05e8 rad at which glibc's sin turns slow.  Two more victims observe
// the read's value: a monitor-fault hook maps every read, and an
// adaptive controller under a weak tone is fed each point read.
// ---------------------------------------------------------------------

/** One victim run the three ways. */
struct ZoneArms {
    Obs traced;
    Obs slow;
    Obs fast;
};

template <class Build>
ZoneArms
runThreeWays(Build&& build, double seconds)
{
    const auto run = [&](int coalesceQuanta, bool traced) {
        StormEnv env;
        build(env, coalesceQuanta);
        trace::Buffer buffer;
        {
            std::optional<trace::BufferScope> scope;
            if (traced)
                scope.emplace(&buffer);
            env.simulation->run(seconds);
        }
        return capture(*env.simulation, env.io);
    };
    return {run(-1, true), run(0, false), run(-1, false)};
}

/**
 * The three ways agree, the traced run formed every read with glibc's
 * sin, and the untraced ones formed at most `exactPerMille` of theirs
 * with it.
 */
void
expectZoneReadsExact(const ZoneArms& arms, const std::string& label,
                     std::uint64_t exactPerMille)
{
    expectSame(arms.slow, arms.traced, label + ": bursts off vs traced");
    expectSame(arms.fast, arms.traced, label + ": default vs traced");
    const sim::SimStats& traced = arms.traced.counters.sim;
    ASSERT_GT(traced.pointReads, 1000u) << label;
    EXPECT_EQ(traced.exactReads, traced.pointReads) << label;
    for (const Obs* o : {&arms.slow, &arms.fast}) {
        const sim::SimStats& s = o->counters.sim;
        EXPECT_LE(s.exactReads * 1000, s.pointReads * exactPerMille)
            << label << ": " << s.exactReads << " of " << s.pointReads
            << " point reads called sin";
    }
}

TEST(CoalesceZoneReadTest, AttackSweepAdcPointsAgreeThreeWays)
{
    for (const AdcPoint& point : kAdcPoints) {
        for (Victim victim : {Victim::kNvp, Victim::kGeckoAdaptive}) {
            const std::string label =
                std::string(point.device) + "/" + victimName(victim);
            const ZoneArms arms = runThreeWays(
                [&](StormEnv& env, int coalesceQuanta) {
                    buildAdcEnv(env, point, victim, sim::ExecBackend::kBlock,
                                coalesceQuanta);
                },
                1.2);
            expectZoneReadsExact(arms, label, 1);
            EXPECT_GT(arms.fast.counters.sim.coalescedSleepSamples, 0u)
                << label;
        }
    }
}

TEST(CoalesceZoneReadTest, ObservedReadValuesStayExact)
{
    // A monitor-fault hook maps every read, so no read may skip it.
    const ZoneArms faulted = runThreeWays(
        [](StormEnv& env, int coalesceQuanta) {
            buildAdcEnv(env, kAdcPoints[0], Victim::kNvp,
                        sim::ExecBackend::kBlock, coalesceQuanta);
            env.simulation->setMonitorFault(
                [](double v, double) { return v - 0.3; });
        },
        1.2);
    expectZoneReadsExact(faulted, "monitor fault", 1000);
    EXPECT_EQ(faulted.slow.counters.sim.exactReads,
              faulted.slow.counters.sim.pointReads);

    // A tone of at most 0.1 mV is no attack: the controller is fed each
    // point read's value, and the shadow comparator observes it.
    const ZoneArms weak = runThreeWays(
        [](StormEnv& env, int coalesceQuanta) {
            buildAdcEnv(env, kAdcPoints[0], Victim::kGeckoAdaptive,
                        sim::ExecBackend::kBlock, coalesceQuanta);
            env.source->setTone(27e6, -65.0);
            ASSERT_GT(env.source->amplitude(), 0.0);
            ASSERT_LE(env.source->amplitude(), 1e-4);
        },
        2.0);
    expectZoneReadsExact(weak, "weak tone", 1000);
    EXPECT_GT(weak.fast.counters.defense.samples, 1000u);
}

// ---------------------------------------------------------------------
// Defended quiet bursts (DESIGN.md §14): the quiet samples of a victim
// with a controller take evaluated bursts, with either monitor as
// primary.  Campaign jobs — the engine's victim on a ScenarioEnv — run
// under both controller presets and both primaries on four
// environments: a clean constant supply; the campaign's seed-drawn
// burst windows, after which the controller's score decays through its
// de-escalations; the same windows on an outage supply (boots, the
// energy-debt ledger, the re-enable probe armed by detections); and a
// tone too weak to count as an attack, whose point reads the
// controller is fed exactly.
// ---------------------------------------------------------------------

struct DefendedEnv {
    sim::IoHub io;
    std::unique_ptr<campaign::ScenarioEnv> scenario;
    std::unique_ptr<sim::IntermittentSim> simulation;
};

/** One defended job: the environment, preset and primary it runs. */
struct DefendedCase {
    std::string env;
    campaign::Scenario scenario;
    std::string preset;
    analog::MonitorKind monitor;

    std::string label() const
    {
        return env + "/" + preset + "/" +
               (monitor == analog::MonitorKind::kAdc ? "adc" : "comparator");
    }
};

std::vector<DefendedCase>
defendedCases()
{
    campaign::Scenario burst;
    burst.kind = campaign::ScenarioKind::kBurst;
    campaign::Scenario outage = burst;
    outage.outagePeriodS = 0.02;
    outage.outageOnFrac = 0.5;
    campaign::Scenario weak;
    weak.kind = campaign::ScenarioKind::kTone;
    weak.powerDbm = -65.0;
    const std::pair<const char*, campaign::Scenario> envs[] = {
        {"clean", campaign::cleanBaseline()},
        {"burst", burst},
        {"outage", outage},
        {"weak tone", weak},
    };
    std::vector<DefendedCase> cases;
    for (const auto& [name, scenario] : envs)
        for (const char* preset : {"adaptive", "strict"})
            for (analog::MonitorKind monitor :
                 {analog::MonitorKind::kAdc,
                  analog::MonitorKind::kComparator}) {
                DefendedCase c{name, scenario, preset, monitor};
                // The burst windows hit each primary at its own path's
                // resonance (attack_sweep's points).
                if (scenario.kind == campaign::ScenarioKind::kBurst &&
                    monitor == analog::MonitorKind::kComparator)
                    c.scenario.freqHz = 5e6;
                cases.push_back(c);
            }
    return cases;
}

/** The campaign engine's victim configuration (runJobOnce). */
void
buildDefendedEnv(DefendedEnv& env, const DefendedCase& c, int coalesceQuanta)
{
    static const CompiledProgram gecko = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.monitorKind = c.monitor;
    cfg.memWords = 4096;
    cfg.jitRamWords = 64;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    cfg.monitorSeed = 11;
    cfg.coalesceQuanta = coalesceQuanta;
    ASSERT_TRUE(defense::presetByName(c.preset, &cfg.defense));
    workloads::setupIo("sensor_loop", env.io);
    env.scenario = std::make_unique<campaign::ScenarioEnv>(
        c.scenario, dev, c.monitor, 3, 0.1);
    env.simulation = std::make_unique<sim::IntermittentSim>(
        gecko, dev, cfg, env.scenario->supply(), env.io);
    env.scenario->attach(*env.simulation);
}

Obs
runDefended(const DefendedCase& c, int coalesceQuanta, double seconds)
{
    DefendedEnv env;
    buildDefendedEnv(env, c, coalesceQuanta);
    env.simulation->run(seconds);
    return capture(*env.simulation, env.io);
}

TEST(CoalesceDefendedTest, QuietSamplesUnchangedByBursts)
{
    std::uint64_t reenables = 0;
    for (const DefendedCase& c : defendedCases()) {
        const std::string label = c.label();
        Obs on = runDefended(c, -1, 0.1);
        Obs off = runDefended(c, 0, 0.1);
        ASSERT_GT(off.counters.exec.cycles, 0u) << label;
        EXPECT_EQ(off.counters.sim.coalescedQuanta, 0u) << label;
        expectSame(on, off, label);
        const sim::SimStats& onSim = on.counters.sim;
        EXPECT_GT(onSim.coalescedQuanta * 10, onSim.quanta * 9)
            << label << ": " << onSim.coalescedQuanta << " of "
            << onSim.quanta << " quanta coalesced";
        // Each environment exercises what it is here for.
        if (c.env == "burst") {
            EXPECT_GT(off.counters.defense.deEscalations, 0u) << label;
        } else if (c.env == "outage") {
            EXPECT_GT(off.counters.sim.reboots, 1u) << label;
            EXPECT_GT(off.counters.defense.peakEnergyDebtJ, 0.0) << label;
            reenables += off.counters.runtime.jitReenables;
        } else if (c.env == "weak tone") {
            EXPECT_GT(off.counters.sim.pointReads, 1000u) << label;
            EXPECT_EQ(onSim.exactReads, onSim.pointReads) << label;
        }
    }
    EXPECT_GT(reenables, 0u) << "no outage case re-enabled JIT";
}

TEST(CoalesceDefendedTest, SnapshotSlicesCutDefendedBursts)
{
    // The adaptive ADC victim on the outage supply under the burst
    // windows: odd slices cut its quiet, storm and sleep bursts, and
    // each cut is saved, torn down and restored into a fresh build.
    constexpr double kSliceS = 0.0123457;
    constexpr int kSlices = 8;
    const DefendedCase c = defendedCases()[8];
    ASSERT_EQ(c.label(), "outage/adaptive/adc");
    auto env = std::make_unique<DefendedEnv>();
    buildDefendedEnv(*env, c, -1);
    for (int k = 0; k < kSlices; ++k) {
        env->simulation->run(kSliceS);
        std::vector<std::uint8_t> blob =
            campaign::saveSimSnapshot(*env->simulation, env->io);
        env = std::make_unique<DefendedEnv>();
        buildDefendedEnv(*env, c, -1);
        campaign::restoreSimSnapshot(*env->simulation, env->io, blob);
    }
    DefendedEnv sliced;
    buildDefendedEnv(sliced, c, 0);
    for (int k = 0; k < kSlices; ++k)
        sliced.simulation->run(kSliceS);

    Obs resumed = capture(*env->simulation, env->io);
    Obs reference = capture(*sliced.simulation, sliced.io);
    ASSERT_GT(reference.counters.sim.reboots, 1u);
    expectSameState(resumed, reference, "defended slices");
    EXPECT_TRUE(resumed.snapshot == reference.snapshot);
}

TEST(CoalesceDefendedTest, ArmedProbeConcludesBeforeAnyQuietBurst)
{
    // A node left in rollback mode by an earlier attack (the NVM's JIT
    // disable flag set) arms the re-enable probe at boot.  A running
    // burst folds its quanta's onProgress calls into one at its end,
    // exact because the march stops before any backup while the probe
    // could still re-enable JIT.  With a controller attached no running
    // burst even starts while the probe is armed: the rollback boot's
    // energy debt needs two credited commits after the uncredited redo
    // before commitsFold() holds, and the second commit concludes the
    // probe.
    for (analog::MonitorKind monitor :
         {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator}) {
        const DefendedCase c{"clean", campaign::cleanBaseline(), "adaptive",
                             monitor};
        const std::string label = c.label();
        const auto build = [&](DefendedEnv& env, int coalesceQuanta) {
            buildDefendedEnv(env, c, coalesceQuanta);
            env.simulation->nvm().jitDisabledFlag = 1;
        };
        const auto run = [&](int coalesceQuanta) {
            DefendedEnv env;
            build(env, coalesceQuanta);
            env.simulation->run(0.05);
            return capture(*env.simulation, env.io);
        };
        Obs on = run(-1);
        Obs off = run(0);
        expectSame(on, off, label);
        EXPECT_EQ(off.counters.runtime.jitReenables, 1u) << label;
        EXPECT_GT(on.counters.sim.coalescedQuanta * 2, on.counters.sim.quanta)
            << label;

        // Two quanta per slice: a burst inside a slice starts at its
        // first quantum, so none may run in a slice the probe entered
        // armed.  The quantum is read off a copy of the run: its first
        // call boots and steps once, its second steps once more.
        double dt = 0.0;
        {
            DefendedEnv probe;
            build(probe, -1);
            probe.simulation->run(1e-12);
            const double t0 = probe.simulation->now();
            probe.simulation->run(1e-12);
            dt = probe.simulation->now() - t0;
        }
        DefendedEnv env;
        build(env, -1);
        sim::IntermittentSim& simulation = *env.simulation;
        bool armedSeen = false;
        while (simulation.now() < 0.05) {
            const bool armed = simulation.geckoRuntime().probeArmed();
            armedSeen = armedSeen || armed;
            const std::uint64_t before = simulation.stats.coalescedQuanta;
            simulation.run(1.5 * dt);
            if (armed) {
                ASSERT_EQ(simulation.stats.coalescedQuanta, before)
                    << label << ": a burst began with the probe armed at t="
                    << simulation.now();
            }
        }
        EXPECT_TRUE(armedSeen) << label;
        EXPECT_GT(simulation.stats.coalescedQuanta, 0u)
            << label << ": no slice held a burst";
        EXPECT_EQ(simulation.counters().runtime.jitReenables, 1u) << label;
    }
}

// ---------------------------------------------------------------------
// Fig. 14 victims on the RF harvesting trace: the quiet bursts there
// reach a monitor edge mid-march more often than anywhere else, so a
// certified march keeps failing a band check and committing the last
// prefix that passed.  Burst limits 2, 3 and 37 end marches on and off
// a power of two; every arm must match the arm without bursts.
// ---------------------------------------------------------------------

Obs
runHarvest(const CompiledProgram& compiled, const std::string& workload,
           int coalesceQuanta)
{
    constexpr double kSeconds = 1.0;
    sim::IoHub io;
    workloads::setupIo(workload, io);
    energy::TraceHarvester trace =
        energy::makeRfTrace(3.3, 5.0, 1.0, 0.55, kSeconds, 7);
    sim::SimConfig cfg;
    cfg.cap.capacitanceF = 1e-3;
    cfg.coalesceQuanta = coalesceQuanta;
    sim::IntermittentSim simulation(compiled,
                                    device::DeviceDb::msp430fr5994(), cfg,
                                    trace, io);
    simulation.machine().setExecBackend(sim::ExecBackend::kBlock);
    simulation.run(kSeconds);
    return capture(simulation, io);
}

TEST(CoalesceHarvestTest, Fig14VictimsUnchangedAtEveryBurstLimit)
{
    for (const char* workload : {"crc16", "qsort", "sensor_loop"})
        for (Scheme scheme : {Scheme::kNvp, Scheme::kRatchet, Scheme::kGecko}) {
            const CompiledProgram compiled =
                compiler::compile(workloads::build(workload), scheme);
            const std::string label =
                std::string(workload) + "/" + compiler::schemeName(scheme);
            const Obs off = runHarvest(compiled, workload, 0);
            ASSERT_GT(off.counters.exec.completions, 0u) << label;
            EXPECT_EQ(off.counters.sim.marchSteps, 0u) << label;
            for (int limit : {2, 3, 37})
                expectSame(runHarvest(compiled, workload, limit), off,
                           label + " at limit " + std::to_string(limit));
            const Obs on = runHarvest(compiled, workload, -1);
            expectSame(on, off, label + " at the default limit");
            // Some band failed mid-march: the marches stepped past what
            // their bursts committed.
            const sim::SimStats& bursts = on.counters.sim;
            EXPECT_GT(bursts.coalescedQuanta * 10, bursts.quanta * 9)
                << label;
            EXPECT_GT(bursts.marchSteps,
                      bursts.coalescedQuanta + bursts.coalescedSleepSamples)
                << label;
        }
}

}  // namespace
}  // namespace gecko
