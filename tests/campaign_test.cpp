#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/archive.hpp"
#include "campaign/engine.hpp"
#include "campaign/manifest.hpp"
#include "campaign/scenario.hpp"
#include "campaign/snapshot.hpp"
#include "compiler/pipeline.hpp"
#include "defense/defense.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"
#include "fault/injectors.hpp"
#include "fault/spec.hpp"
#include "metrics/json.hpp"
#include "sim/intermittent_sim.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * The crash-tolerant campaign layer (DESIGN.md §13): archive container
 * integrity, bit-exact simulator snapshot/resume under hostile
 * environments and every injector family, manifest recovery semantics
 * (torn tails included), the durable JSONL writer, and the engine's
 * end-to-end oracle — interrupted campaigns resume to the byte-
 * identical aggregate of an uninterrupted run, across thread counts
 * and execution backends.
 */

namespace gecko {
namespace {

namespace fs = std::filesystem;
using campaign::Archive;
using campaign::SnapshotError;
using compiler::Scheme;

using test::TempDir;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------
// Archive container
// ---------------------------------------------------------------------

TEST(ArchiveTest, PrimitivesRoundTrip)
{
    Archive save = Archive::saver();
    std::uint8_t u8 = 0xab;
    std::uint16_t u16 = 0xbeef;
    std::uint32_t u32 = 0xdeadbeefu;
    std::uint64_t u64 = 0x0123456789abcdefull;
    std::int32_t i32 = -123456;
    double f64 = -0.0625;
    bool b = true;
    std::array<std::uint32_t, 3> arr{1, 2, 3};
    std::vector<std::uint32_t> vec{9, 8, 7, 6};
    save.section("test");
    save.u8(u8);
    save.u16(u16);
    save.u32(u32);
    save.u64(u64);
    save.i32(i32);
    save.f64(f64);
    save.boolean(b);
    save.u32Array(arr);
    save.u32FixedVector(vec, "vec");
    save.check(42, "the answer");
    auto blob = campaign::sealContainer(7, save.takePayload());

    Archive load = Archive::loader(campaign::openContainer(blob, 7));
    std::uint8_t r8 = 0;
    std::uint16_t r16 = 0;
    std::uint32_t r32 = 0;
    std::uint64_t r64 = 0;
    std::int32_t ri32 = 0;
    double rf64 = 0;
    bool rb = false;
    std::array<std::uint32_t, 3> rarr{};
    std::vector<std::uint32_t> rvec(4, 0);
    load.section("test");
    load.u8(r8);
    load.u16(r16);
    load.u32(r32);
    load.u64(r64);
    load.i32(ri32);
    load.f64(rf64);
    load.boolean(rb);
    load.u32Array(rarr);
    load.u32FixedVector(rvec, "vec");
    load.check(42, "the answer");
    load.finishLoad();
    EXPECT_EQ(r8, u8);
    EXPECT_EQ(r16, u16);
    EXPECT_EQ(r32, u32);
    EXPECT_EQ(r64, u64);
    EXPECT_EQ(ri32, i32);
    EXPECT_EQ(rf64, f64);
    EXPECT_EQ(rb, b);
    EXPECT_EQ(rarr, arr);
    EXPECT_EQ(rvec, vec);
}

TEST(ArchiveTest, GuardsRejectDamage)
{
    Archive save = Archive::saver();
    save.section("sec");
    std::uint64_t v = 77;
    save.u64(v);
    auto blob = campaign::sealContainer(3, save.takePayload());

    // Wrong container version.
    EXPECT_THROW(campaign::openContainer(blob, 4), SnapshotError);
    // Bad magic.
    {
        auto bad = blob;
        bad[0] ^= 0xff;
        EXPECT_THROW(campaign::openContainer(bad, 3), SnapshotError);
    }
    // Payload bit-flip must fail the CRC.
    {
        auto bad = blob;
        bad[bad.size() / 2] ^= 0x01;
        EXPECT_THROW(campaign::openContainer(bad, 3), SnapshotError);
    }
    // Truncation at every byte boundary must never be accepted.
    for (std::size_t n = 0; n < blob.size(); ++n) {
        std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + n);
        EXPECT_THROW(campaign::openContainer(cut, 3), SnapshotError)
            << "truncated to " << n << " bytes";
    }
    // Wrong section tag.
    {
        Archive load =
            Archive::loader(campaign::openContainer(blob, 3));
        EXPECT_THROW(load.section("other"), SnapshotError);
    }
    // check() mismatch.
    {
        Archive load =
            Archive::loader(campaign::openContainer(blob, 3));
        load.section("sec");
        std::uint64_t r = 0;
        load.u64(r);
        EXPECT_THROW(load.check(5, "guard"), SnapshotError);
    }
    // Trailing bytes (payload longer than the reader consumed).
    {
        Archive load =
            Archive::loader(campaign::openContainer(blob, 3));
        load.section("sec");
        EXPECT_THROW(load.finishLoad(), SnapshotError);
    }
}

// ---------------------------------------------------------------------
// Simulator snapshot/resume: bit-exact lockstep under every injector
// family, across both execution backends.
// ---------------------------------------------------------------------

enum class Injector {
    kNone,
    kEmiSchedule,
    kBrownout,
    kMonitorFault,
    kJitWriteFault,
    kDefenseEmi,
    kCorruptJitWord,
    kCorruptSlotWord,
    kCorruptAckWord,
    kSubstituteJitImage,
    kStaleSlot,
};

const Injector kAllInjectors[] = {
    Injector::kNone,           Injector::kEmiSchedule,
    Injector::kBrownout,       Injector::kMonitorFault,
    Injector::kJitWriteFault,  Injector::kDefenseEmi,
    Injector::kCorruptJitWord, Injector::kCorruptSlotWord,
    Injector::kCorruptAckWord, Injector::kSubstituteJitImage,
    Injector::kStaleSlot,
};

/** Everything observable about a finished run. */
struct SnapObservation {
    sim::Counters counters;
    std::array<std::uint32_t, 16> regs{};
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
    std::vector<trace::Event> events;
    double nowS = 0.0;
};

constexpr int kSlices = 6;
constexpr double kSliceS = 0.003;

/** One fully-owned simulation environment, rebuilt for restores. */
struct SnapEnv {
    std::unique_ptr<compiler::CompiledProgram> compiled;
    sim::IoHub io;
    std::unique_ptr<energy::Harvester> supply;
    std::unique_ptr<sim::IntermittentSim> simulation;
    std::unique_ptr<attack::RemoteRig> rig;
    std::unique_ptr<attack::EmiSource> source;
    std::unique_ptr<attack::AttackSchedule> schedule;
};

/** Deterministic build of the environment for (seed, injector). */
void
buildEnv(SnapEnv& env, std::uint32_t seed, Injector injector)
{
    env.compiled = std::make_unique<compiler::CompiledProgram>(
        compiler::compile(workloads::build("sensor_loop"),
                          Scheme::kGecko));
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 4096;
    cfg.jitRamWords = 8;
    cfg.bootOverheadCycles = 1000;
    cfg.monitorSeed = seed;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    if (injector == Injector::kDefenseEmi)
        cfg.defense.enabled = true;

    workloads::setupIo("sensor_loop", env.io);
    if (injector == Injector::kBrownout) {
        static const energy::ConstantHarvester base(3.3, 5.0);
        env.supply = std::make_unique<fault::BrownoutHarvester>(
            base, 0.004, 0.0015, seed, kSlices * kSliceS);
    } else {
        env.supply = std::make_unique<energy::ConstantHarvester>(3.3, 5.0);
    }
    env.simulation = std::make_unique<sim::IntermittentSim>(
        *env.compiled, dev, cfg, *env.supply, env.io);

    const bool wantEmi = injector == Injector::kEmiSchedule ||
                         injector == Injector::kDefenseEmi;
    if (wantEmi) {
        exp::Rng rng(exp::mixSeed(seed, 0xe317));
        double freqHz = 1e6 * (1 + rng.pick(300));
        double powerDbm = 25.0 + rng.pick(16);
        std::vector<attack::AttackWindow> windows;
        double t = 0.001 * (1 + rng.pick(3));
        for (int i = 0; i < 3; ++i) {
            double on = 0.001 * (1 + rng.pick(4));
            windows.push_back({t, t + on, freqHz, powerDbm});
            t += on + 0.001 * (1 + rng.pick(3));
        }
        env.rig = std::make_unique<attack::RemoteRig>(
            dev, cfg.monitorKind, 0.5);
        env.source =
            std::make_unique<attack::EmiSource>(*env.rig, freqHz, powerDbm);
        env.schedule =
            std::make_unique<attack::AttackSchedule>(std::move(windows));
        env.simulation->setEmiSource(env.source.get());
        env.simulation->setAttackSchedule(env.schedule.get());
    }
    if (injector == Injector::kMonitorFault) {
        // Deterministic sensing-path offset fault active in a band.
        env.simulation->setMonitorFault([](double v, double t) {
            return (t > 0.004 && t < 0.009) ? v - 0.25 : v;
        });
    }
    if (injector == Injector::kJitWriteFault) {
        // Transient per-word write failures on a fixed stride.
        env.simulation->setJitWriteFault(
            [](int word) { return word % 13 == 5; });
    }
}

/**
 * NVM disturbance applied at a slice boundary — identically in the
 * reference and the snapshotted run (the mutation itself is part of
 * the scenario, not of the crash being simulated).
 */
void
boundaryAction(SnapEnv& env, std::uint32_t seed, Injector injector,
               int boundary,
               std::array<std::uint32_t, sim::Nvm::kJitWords>& captured)
{
    sim::Nvm& nvm = env.simulation->nvm();
    if (boundary == 2 && injector == Injector::kSubstituteJitImage)
        captured = nvm.jit;
    if (boundary != 4)
        return;
    exp::Rng rng(exp::mixSeed(seed, 0xfa017));
    switch (injector) {
        case Injector::kCorruptJitWord:
            fault::corruptJitWord(nvm, 2, rng);
            break;
        case Injector::kCorruptSlotWord:
            fault::corruptSlotWord(nvm, 2, rng);
            break;
        case Injector::kCorruptAckWord:
            fault::corruptAckWord(nvm, rng);
            break;
        case Injector::kSubstituteJitImage:
            fault::substituteJitImage(nvm, captured);
            break;
        case Injector::kStaleSlot:
            fault::substituteStaleSlot(nvm, 1, 0,
                                       0xdead0000u | rng.pick(0xffff));
            break;
        default:
            break;
    }
}

SnapObservation
observe(SnapEnv& env, std::vector<trace::Event> events)
{
    SnapObservation obs;
    obs.counters = env.simulation->counters();
    obs.regs = env.simulation->machine().regs();
    obs.out = env.io.output(0).values();
    obs.memory = env.simulation->nvm().data();
    obs.events = std::move(events);
    obs.nowS = env.simulation->now();
    return obs;
}

/**
 * Run the scenario slice-by-slice; when `snapshotAt` >= 0, serialize
 * at that boundary, tear the whole environment down, rebuild it from
 * scratch, restore, and finish — the restored run must be bit-exact.
 */
SnapObservation
runSliced(std::uint32_t seed, Injector injector, sim::ExecBackend backend,
          int snapshotAt)
{
    auto env = std::make_unique<SnapEnv>();
    buildEnv(*env, seed, injector);
    env->simulation->machine().setExecBackend(backend);
    std::array<std::uint32_t, sim::Nvm::kJitWords> captured{};

    auto buffer = std::make_unique<trace::Buffer>();
    auto scope = std::make_unique<trace::BufferScope>(buffer.get());
    for (int k = 0; k < kSlices; ++k) {
        env->simulation->run(kSliceS);
        boundaryAction(*env, seed, injector, k + 1, captured);
        if (k + 1 == snapshotAt) {
            std::vector<std::uint8_t> blob = campaign::saveSimSnapshot(
                *env->simulation, env->io, buffer.get());
            // Full teardown: nothing may survive but the blob (and the
            // harness-held `captured` image, which is scenario input).
            scope.reset();
            buffer.reset();
            env = std::make_unique<SnapEnv>();
            buildEnv(*env, seed, injector);
            env->simulation->machine().setExecBackend(backend);
            buffer = std::make_unique<trace::Buffer>();
            campaign::restoreSimSnapshot(*env->simulation, env->io, blob,
                                         buffer.get());
            scope = std::make_unique<trace::BufferScope>(buffer.get());
        }
    }
    std::vector<trace::Event> events = buffer->events();
    scope.reset();
    return observe(*env, std::move(events));
}

void
expectSame(const SnapObservation& a, const SnapObservation& b,
           const std::string& what)
{
    EXPECT_EQ(test::firstArchivedDifference(a.counters, b.counters), "")
        << what;
    EXPECT_EQ(a.regs, b.regs) << what;
    EXPECT_EQ(a.out, b.out) << what;
    EXPECT_EQ(a.memory, b.memory) << what;
    EXPECT_EQ(a.nowS, b.nowS) << what;
    ASSERT_EQ(a.events.size(), b.events.size())
        << what << ": trace stream length diverged";
    EXPECT_TRUE(a.events == b.events) << what << ": trace diverged";
}

class SnapshotLockstepTest
    : public ::testing::TestWithParam<sim::ExecBackend>
{
};

TEST_P(SnapshotLockstepTest, RestoreMatchesUninterruptedUnderAllInjectors)
{
    const sim::ExecBackend backend = GetParam();
    for (Injector injector : kAllInjectors) {
        const std::uint32_t seed = 11 + static_cast<std::uint32_t>(
                                            injector) * 7;
        SnapObservation ref = runSliced(seed, injector, backend, -1);
        ASSERT_GT(ref.counters.exec.cycles, 0u);
        // Snapshot early, mid, and right after the NVM disturbance.
        for (int at : {1, 3, 5}) {
            SnapObservation snap = runSliced(seed, injector, backend, at);
            expectSame(ref, snap,
                       "injector " +
                           std::to_string(static_cast<int>(injector)) +
                           " snapshot@" + std::to_string(at));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, SnapshotLockstepTest,
                         ::testing::Values(sim::ExecBackend::kStep,
                                           sim::ExecBackend::kBlock),
                         [](const auto& info) {
                             return std::string(
                                 sim::execBackendName(info.param));
                         });

TEST(SnapshotTest, FingerprintMismatchRejectsRestore)
{
    SnapEnv env;
    buildEnv(env, 5, Injector::kNone);
    env.simulation->run(kSliceS);
    auto blob = campaign::saveSimSnapshot(*env.simulation, env.io, nullptr);

    // Same program, differently sized NVM: the fingerprint must refuse.
    auto compiled = compiler::compile(workloads::build("sensor_loop"),
                                      Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 8192;  // differs
    cfg.jitRamWords = 8;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::ConstantHarvester supply(3.3, 5.0);
    sim::IntermittentSim other(compiled, dev, cfg, supply, io);
    EXPECT_THROW(campaign::restoreSimSnapshot(other, io, blob, nullptr),
                 SnapshotError);
}

TEST(SnapshotTest, FileRoundTripAndMissingFile)
{
    TempDir dir("snapfile");
    const std::string path = dir.str() + "/snap.bin";
    EXPECT_TRUE(campaign::readSnapshotFile(path).empty());
    std::vector<std::uint8_t> blob{1, 2, 3, 250, 251};
    ASSERT_TRUE(campaign::writeSnapshotFile(path, blob));
    EXPECT_EQ(campaign::readSnapshotFile(path), blob);
}

// ---------------------------------------------------------------------
// Manifest journal
// ---------------------------------------------------------------------

TEST(ManifestTest, JournalRoundTripAndLatestWins)
{
    TempDir dir("manifest");
    const std::string path = dir.str() + "/manifest.jsonl";
    {
        campaign::ManifestWriter w(path, 4);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE(w.header(10, 0xfeedfacecafebeefull,
                             0xabcdef0123456789ull));
        w.append({3, campaign::JobState::kRunning, 0, 0, ""});
        w.append({3, campaign::JobState::kDone, 0, 4, ""});
        w.append({7, campaign::JobState::kRunning, 0, 0, ""});
        w.append({7, campaign::JobState::kFailed, 0, 0, "boom"});
        w.append({7, campaign::JobState::kRunning, 1, 0, ""});
        ASSERT_TRUE(w.sync());
    }
    campaign::ManifestRecovery rec = campaign::readManifest(path);
    EXPECT_TRUE(rec.hasHeader);
    EXPECT_EQ(rec.totalJobs, 10u);
    // Full-width u64s must survive the journal (they travel as quoted
    // strings to dodge double-precision truncation).
    EXPECT_EQ(rec.configHash, 0xfeedfacecafebeefull);
    EXPECT_EQ(rec.seed, 0xabcdef0123456789ull);
    EXPECT_EQ(rec.maxJob, 7u);
    EXPECT_EQ(rec.stateOf(3), campaign::JobState::kDone);
    EXPECT_EQ(rec.stateOf(7), campaign::JobState::kRunning);
    EXPECT_EQ(rec.latest.at(7).attempt, 1u);
    EXPECT_EQ(rec.stateOf(9), campaign::JobState::kPending);
    EXPECT_EQ(rec.tornLines, 0u);
}

TEST(ManifestTest, TornTailAndGarbageAreCountedNotFatal)
{
    TempDir dir("torn");
    const std::string path = dir.str() + "/manifest.jsonl";
    {
        campaign::ManifestWriter w(path, 1);
        w.header(4, 1, 2);
        w.append({0, campaign::JobState::kDone, 0, 1, ""});
        w.append({1, campaign::JobState::kRunning, 0, 0, ""});
    }
    {
        // Crash damage: a garbage line, a repeated key, a mistyped
        // field and an unterminated tail.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"job\":2,\"state\":\"exploded\",\"attempt\":0,"
               "\"slices\":0}\n";
        out << "{\"job\":2,\"state\":\"done\",\"state\":\"done\","
               "\"attempt\":0,\"slices\":1}\n";
        out << "{\"job\":3,\"state\":\"done\",\"attempt\":\"0\","
               "\"slices\":1}\n";
        out << "{\"job\":3,\"state\":\"run";  // no newline
    }
    campaign::ManifestRecovery rec = campaign::readManifest(path);
    EXPECT_TRUE(rec.hasHeader);
    EXPECT_EQ(rec.stateOf(0), campaign::JobState::kDone);
    EXPECT_EQ(rec.stateOf(1), campaign::JobState::kRunning);
    EXPECT_EQ(rec.stateOf(2), campaign::JobState::kPending);
    EXPECT_EQ(rec.stateOf(3), campaign::JobState::kPending);
    EXPECT_EQ(rec.tornLines, 4u);
    EXPECT_EQ(campaign::readManifest(dir.str() + "/missing.jsonl")
                  .hasHeader,
              false);
}

// ---------------------------------------------------------------------
// Durable JSONL writer
// ---------------------------------------------------------------------

TEST(JsonlWriterTest, EveryRecordLandsTerminated)
{
    TempDir dir("jsonl");
    const std::string path = dir.str() + "/out.jsonl";
    {
        metrics::JsonlWriter w(path, /*append=*/false, /*syncEvery=*/8);
        ASSERT_TRUE(w.ok());
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(w.append("{\"i\":" + std::to_string(i) + "}"));
        EXPECT_EQ(w.records(), 100u);
        EXPECT_GE(w.syncs(), 100u / 8);
        ASSERT_TRUE(w.sync());
    }
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    int lines = 0;
    const std::uint64_t torn =
        metrics::readJsonl(path, [&](const metrics::JsonValue& v) {
            auto i = v.getNumber("i");
            if (!i) {
                ADD_FAILURE() << "torn record at line " << lines;
                return false;
            }
            EXPECT_EQ(static_cast<int>(*i), lines);
            ++lines;
            return true;
        });
    EXPECT_EQ(torn, 0u);
    EXPECT_EQ(lines, 100);
}

TEST(JsonlWriterTest, TornTailIsTerminatedBeforeTheFirstAppend)
{
    // A crash can stop a journal mid-record.  The next writer must not
    // glue its first record onto that fragment: the fragment stays one
    // damaged line and every later record reads whole.
    TempDir dir("jsonltail");
    const std::string path = dir.str() + "/out.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"i\":0}\n{\"i\":1,\"gro";
    }
    {
        metrics::JsonlWriter w(path, /*append=*/true, 0);
        ASSERT_TRUE(w.ok());
        EXPECT_EQ(slurp(path), "{\"i\":0}\n{\"i\":1,\"gro")
            << "opening alone must not write";
        ASSERT_TRUE(w.append("{\"i\":2}"));
        ASSERT_TRUE(w.append("{\"i\":3}"));
    }
    {
        // A terminated file gains no blank line.
        metrics::JsonlWriter w(path, /*append=*/true, 0);
        ASSERT_TRUE(w.append("{\"i\":4}"));
    }
    EXPECT_EQ(slurp(path), "{\"i\":0}\n{\"i\":1,\"gro\n{\"i\":2}\n"
                           "{\"i\":3}\n{\"i\":4}\n");
    std::vector<double> ids;
    EXPECT_EQ(metrics::readJsonl(path,
                                 [&](const metrics::JsonValue& v) {
                                     ids.push_back(*v.getNumber("i"));
                                     return true;
                                 }),
              1u);
    EXPECT_EQ(ids, (std::vector<double>{0, 2, 3, 4}));
}

TEST(JsonlWriterTest, SecondWriterOnAJournalIsRefused)
{
    TempDir dir("jsonllock");
    const std::string path = dir.str() + "/out.jsonl";
    {
        metrics::JsonlWriter first(path, /*append=*/true, 0);
        ASSERT_TRUE(first.ok());
        ASSERT_TRUE(first.append("{\"i\":0}"));
        for (bool append : {true, false}) {
            // Refused before a truncating writer could truncate, too.
            metrics::JsonlWriter second(path, append, 0);
            EXPECT_FALSE(second.ok());
            EXPECT_NE(second.openError().find("held by another writer"),
                      std::string::npos)
                << second.openError();
            EXPECT_FALSE(second.append("{\"i\":9}"));
        }
        ASSERT_TRUE(first.append("{\"i\":1}"));
    }
    EXPECT_EQ(slurp(path), "{\"i\":0}\n{\"i\":1}\n");
    // The lock dies with its writer.
    metrics::JsonlWriter next(path, /*append=*/true, 0);
    EXPECT_TRUE(next.ok()) << next.openError();
}

TEST(JsonlWriterTest, AppendModeExtendsExistingJournal)
{
    TempDir dir("jsonl2");
    const std::string path = dir.str() + "/out.jsonl";
    {
        metrics::JsonlWriter w(path, false, 0);
        w.append("{\"i\":0}");
    }
    {
        metrics::JsonlWriter w(path, true, 0);
        w.append("{\"i\":1}");
    }
    std::ifstream in(path);
    std::string l1, l2;
    ASSERT_TRUE(std::getline(in, l1));
    ASSERT_TRUE(std::getline(in, l2));
    EXPECT_EQ(l1, "{\"i\":0}");
    EXPECT_EQ(l2, "{\"i\":1}");
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

TEST(AggregateTest, RoundTripDedupAndDeterministicRender)
{
    campaign::JobResult a;
    a.job = 4;
    a.group = "w/S/clean";
    a.slices = 2;
    a.counters.exec.cycles = 1000;
    a.counters.exec.completions = 3;
    campaign::JobResult b = a;
    b.job = 9;
    b.group = "a/S/tone";
    b.counters.exec.cycles = 500;

    metrics::JsonValue line;
    ASSERT_TRUE(metrics::parseJson(a.toJsonl(), &line));
    auto parsed = campaign::JobResult::fromJson(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->job, a.job);
    EXPECT_EQ(parsed->group, a.group);
    EXPECT_EQ(parsed->counters.exec.cycles, a.counters.exec.cycles);
    EXPECT_FALSE(metrics::parseJson("{\"job\":1,\"group\":\"x\"", &line));
    // Whole JSON that lacks the record's fields is no record either.
    ASSERT_TRUE(metrics::parseJson("{\"job\":1,\"group\":\"x\"}", &line));
    EXPECT_FALSE(campaign::JobResult::fromJson(line).has_value());

    campaign::Aggregator agg(16);
    EXPECT_TRUE(agg.add(a));
    EXPECT_TRUE(agg.add(b));
    // A crash between the result write and the manifest `done` makes
    // the re-run append an identical line: it must not double-count.
    EXPECT_FALSE(agg.add(a));
    EXPECT_EQ(agg.jobCount(), 2u);
    std::string json = agg.toJson(16, 111, 222);
    // Groups render in key order regardless of insertion order.
    EXPECT_LT(json.find("a/S/tone"), json.find("w/S/clean"));
    EXPECT_NE(json.find("\"jobs_done\":2"), std::string::npos);

    campaign::Aggregator again(16);
    EXPECT_TRUE(again.add(b));
    EXPECT_TRUE(again.add(a));
    EXPECT_EQ(again.toJson(16, 111, 222), json);
}

// ---------------------------------------------------------------------
// Engine: end-to-end crash-tolerance oracles (in-process)
// ---------------------------------------------------------------------

campaign::CampaignSpace
smallSpace()
{
    campaign::CampaignSpace space;
    space.workloads = {"sensor_loop"};
    space.schemes = {Scheme::kGecko, Scheme::kNvp};
    campaign::Scenario tone;
    tone.kind = campaign::ScenarioKind::kTone;
    space.scenarios = {campaign::cleanBaseline(), tone};
    space.seeds = {1, 2};
    space.simSeconds = 0.008;
    space.sliceSimSeconds = 0.002;
    return space;
}

campaign::EngineConfig
engineConfig(const std::string& dir)
{
    campaign::EngineConfig config;
    config.dir = dir;
    config.space = smallSpace();
    config.seed = 99;
    return config;
}

TEST(EngineTest, CompletesAndAggregateIsThreadInvariant)
{
    TempDir d1("eng1"), d8("eng8");
    exp::ThreadPool pool1(1), pool8(8);
    auto r1 = campaign::runCampaign(engineConfig(d1.str()), pool1);
    auto r8 = campaign::runCampaign(engineConfig(d8.str()), pool8);
    EXPECT_TRUE(r1.complete);
    EXPECT_TRUE(r8.complete);
    EXPECT_EQ(r1.jobsDone, r1.jobsTotal);
    EXPECT_EQ(r1.aggregateJson, r8.aggregateJson);
    // aggregate.json on disk matches the in-memory render.
    std::ifstream in(d1.str() + "/aggregate.json", std::ios::binary);
    std::string onDisk((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    EXPECT_EQ(onDisk, r1.aggregateJson);
    // Re-running a complete campaign is a cheap no-op with the same
    // aggregate.
    auto again = campaign::runCampaign(engineConfig(d1.str()), pool1);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(again.jobsRequeued, 0u);
    EXPECT_EQ(again.aggregateJson, r1.aggregateJson);
}

TEST(EngineTest, ReportTotalsEqualTheAggregateSums)
{
    // A fresh, complete run counts each job once, so its totals equal
    // the aggregate's per-group sums for every streamed counter — and
    // also carry the unarchived quanta the aggregate leaves out.
    TempDir dir("totals");
    exp::ThreadPool pool(2);
    const campaign::EngineReport report =
        campaign::runCampaign(engineConfig(dir.str()), pool);
    ASSERT_TRUE(report.complete);
    metrics::JsonValue json;
    ASSERT_TRUE(metrics::parseJson(report.aggregateJson, &json));
    const metrics::JsonValue* groups = json.find("groups");
    ASSERT_TRUE(groups && !groups->arr.empty());
    int streamed = 0;
    sim::Counters::forEachField(
        [&](const metrics::CounterField& field, auto get) {
            if (!groups->arr.front().find(field.name))
                return;
            std::uint64_t sum = 0;
            for (const metrics::JsonValue& g : groups->arr) {
                const std::optional<std::uint64_t> n = g.getU64(field.name);
                ASSERT_TRUE(n.has_value()) << field.name;
                sum += *n;
            }
            ++streamed;
            EXPECT_EQ(static_cast<std::uint64_t>(get(report.totals)), sum)
                << field.name;
        });
    EXPECT_EQ(streamed, 16);
    EXPECT_GT(report.totals.exec.cycles, 0u);
    EXPECT_GT(report.totals.sim.quanta, 0u);
}

/** Run the campaign in `dir`, stopping it two slices into job 2. */
campaign::EngineReport
interruptInJob2(const std::string& dir, exp::ThreadPool& pool)
{
    // Arm the stop flag once job 2 starts; a couple of slice checks
    // later the engine must snapshot mid-job and drain.
    std::atomic<bool> armed{false};
    std::atomic<int> checks{0};
    auto config = engineConfig(dir);
    config.beforeJob = [&](std::uint64_t job) {
        if (job == 2)
            armed.store(true);
    };
    config.stopRequested = [&] {
        return armed.load() && ++checks > 2;
    };
    return campaign::runCampaign(config, pool);
}

TEST(EngineTest, MidJobInterruptSnapshotsAndResumesByteIdentical)
{
    TempDir ref("intref"), cut("intcut");
    exp::ThreadPool pool(1);
    auto expected = campaign::runCampaign(engineConfig(ref.str()), pool);

    auto interrupted = interruptInJob2(cut.str(), pool);
    EXPECT_FALSE(interrupted.complete);
    EXPECT_LT(interrupted.jobsDone, interrupted.jobsTotal);
    EXPECT_TRUE(fs::exists(cut.str() + "/snap_2.bin"));

    auto resumed =
        campaign::runCampaign(engineConfig(cut.str()), pool);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.resumedFromSnapshot, 1u);
    EXPECT_GE(resumed.jobsRequeued, 1u);
    EXPECT_EQ(resumed.aggregateJson, expected.aggregateJson);
    EXPECT_FALSE(fs::exists(cut.str() + "/snap_2.bin"));
}

TEST(EngineTest, DamagedSnapshotRestartsItsJobClean)
{
    TempDir ref("dsref"), cut("dscut");
    exp::ThreadPool pool(1);
    auto expected = campaign::runCampaign(engineConfig(ref.str()), pool);

    ASSERT_FALSE(interruptInJob2(cut.str(), pool).complete);
    const std::string snap = cut.str() + "/snap_2.bin";
    ASSERT_TRUE(fs::exists(snap));
    fs::resize_file(snap, fs::file_size(snap) / 2);

    // The damaged snapshot is dropped and job 2 runs from its start:
    // no attempt is charged and nothing resumes from the file.
    auto resumed = campaign::runCampaign(engineConfig(cut.str()), pool);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.attemptsFailed, 0u);
    EXPECT_EQ(resumed.resumedFromSnapshot, 0u);
    EXPECT_FALSE(fs::exists(snap));
    EXPECT_EQ(resumed.aggregateJson, expected.aggregateJson);
}

TEST(EngineTest, BoundedProgressChunksConvergeByteIdentical)
{
    TempDir ref("chunkref"), chunk("chunk");
    exp::ThreadPool pool(3);
    auto expected = campaign::runCampaign(engineConfig(ref.str()), pool);

    auto config = engineConfig(chunk.str());
    config.maxJobsThisRun = 3;
    campaign::EngineReport r;
    int runs = 0;
    do {
        r = campaign::runCampaign(config, pool);
        ASSERT_LT(++runs, 20) << "campaign failed to converge";
    } while (!r.complete);
    EXPECT_EQ(r.aggregateJson, expected.aggregateJson);
}

TEST(EngineTest, PoisonJobsAreQuarantinedAndCampaignCompletes)
{
    TempDir dir("poison");
    exp::ThreadPool pool(2);
    auto config = engineConfig(dir.str());
    config.space.workloads = {"sensor_loop", "__poison__"};
    auto report = campaign::runCampaign(config, pool);
    EXPECT_TRUE(report.complete);
    // Half the job space names the unknown workload: every attempt
    // throws, the retry budget drains, and the jobs land in quarantine
    // without taking the campaign down.
    EXPECT_EQ(report.jobsQuarantined, report.jobsTotal / 2);
    EXPECT_EQ(report.jobsDone, report.jobsTotal / 2);
    EXPECT_EQ(report.attemptsFailed,
              report.jobsQuarantined * campaign::kMaxAttempts);
    EXPECT_EQ(report.aggregateJson.find("__poison__"), std::string::npos);

    // Quarantine is durable: a resume re-queues nothing.
    auto again = campaign::runCampaign(config, pool);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(again.jobsRequeued, 0u);
    EXPECT_EQ(again.attemptsFailed, 0u);
}

TEST(EngineTest, ThrowOutsideJobContainmentEndsTheRunAndResumes)
{
    TempDir ref("throwref"), dir("throw");
    exp::ThreadPool pool(2);
    auto expected = campaign::runCampaign(engineConfig(ref.str()), pool);

    // A throw outside per-job containment ends the run and reaches the
    // caller; the job it hit keeps its journal state.
    std::atomic<bool> thrown{false};
    auto config = engineConfig(dir.str());
    config.beforeJob = [&](std::uint64_t job) {
        if (job == 1 && !thrown.exchange(true))
            throw std::runtime_error("worker infrastructure failure");
    };
    try {
        campaign::runCampaign(config, pool);
        ADD_FAILURE() << "runCampaign swallowed the beforeJob throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "worker infrastructure failure");
    }

    // A plain resume re-queues what the run left and completes.
    auto report = campaign::runCampaign(engineConfig(dir.str()), pool);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.attemptsFailed, 0u);
    EXPECT_EQ(report.aggregateJson, expected.aggregateJson);
}

TEST(EngineTest, RefusesForeignManifest)
{
    TempDir dir("foreign");
    exp::ThreadPool pool(1);
    auto config = engineConfig(dir.str());
    config.maxJobsThisRun = 2;  // leave the campaign incomplete
    campaign::runCampaign(config, pool);

    auto other = engineConfig(dir.str());
    other.space.seeds = {5, 6, 7};  // different job space
    EXPECT_THROW(campaign::runCampaign(other, pool),
                 std::runtime_error);
    auto reseeded = engineConfig(dir.str());
    reseeded.seed = 100;  // different campaign seed
    EXPECT_THROW(campaign::runCampaign(reseeded, pool),
                 std::runtime_error);
}

TEST(EngineTest, TornJournalTailsAreAbsorbedOnResume)
{
    TempDir dir("tornres");
    exp::ThreadPool pool(1);
    auto config = engineConfig(dir.str());
    config.maxJobsThisRun = 3;
    campaign::runCampaign(config, pool);

    // Simulate a SIGKILL mid-write: unterminated tails on both
    // journals.
    {
        std::ofstream m(dir.str() + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        m << "{\"job\":3,\"state\":\"runn";
        std::ofstream r(dir.str() + "/results.jsonl",
                        std::ios::app | std::ios::binary);
        r << "{\"job\":3,\"group\":\"sensor";
    }
    TempDir ref("tornref");
    auto expected =
        campaign::runCampaign(engineConfig(ref.str()), pool);
    auto resumed = campaign::runCampaign(engineConfig(dir.str()), pool);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.tornManifestLines, 1u);
    EXPECT_EQ(resumed.tornResultLines, 1u);
    EXPECT_EQ(resumed.aggregateJson, expected.aggregateJson);
}

TEST(EngineTest, TornResultTailNeverGluesOntoTheNextRecord)
{
    // A crash leaves half a result line; the partial resume that
    // follows must start its first record on a fresh line, so the full
    // resume after it reads that record whole instead of folding a
    // phantom group out of fragment + record.
    TempDir ref("glueref"), dir("glue");
    exp::ThreadPool pool(1);
    campaign::runCampaign(engineConfig(ref.str()), pool);
    auto config = engineConfig(dir.str());
    config.maxJobsThisRun = 3;
    campaign::runCampaign(config, pool);
    {
        std::ofstream r(dir.str() + "/results.jsonl",
                        std::ios::app | std::ios::binary);
        r << "{\"job\":3,\"group\":\"sens";
    }
    config.maxJobsThisRun = 1;
    const campaign::EngineReport partial = campaign::runCampaign(config, pool);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.tornResultLines, 1u);
    const campaign::EngineReport full =
        campaign::runCampaign(engineConfig(dir.str()), pool);
    EXPECT_TRUE(full.complete);
    EXPECT_EQ(full.tornResultLines, 1u);
    EXPECT_EQ(full.aggregateJson.find("sens{"), std::string::npos);
    EXPECT_EQ(slurp(dir.str() + "/aggregate.json"),
              slurp(ref.str() + "/aggregate.json"));
}

TEST(EngineTest, DamagedInteriorResultLineReRunsItsJob)
{
    TempDir ref("midref");
    exp::ThreadPool pool(1);
    campaign::runCampaign(engineConfig(ref.str()), pool);

    // Damage the middle line: drop its closing brace and the last digit
    // of `cycles`, repeat its first key, or quote `cycles`.  Each must
    // read as damage, never as a record (a smaller count, say).
    for (const std::string damage : {"cut", "duplicate key", "wrong type"}) {
        SCOPED_TRACE(damage);
        TempDir dir("mid");
        auto config = engineConfig(dir.str());
        config.maxJobsThisRun = 3;
        campaign::runCampaign(config, pool);

        const std::string path = dir.str() + "/results.jsonl";
        std::string text = slurp(path);
        const std::size_t lineStart = text.find('\n') + 1;
        const std::size_t lineEnd = text.find('\n', lineStart);
        ASSERT_NE(lineEnd, std::string::npos);
        ASSERT_EQ(text[lineEnd - 1], '}');
        const std::size_t cycles = text.find("\"cycles\":", lineStart);
        ASSERT_LT(cycles, lineEnd);
        const std::size_t value = cycles + 9;
        const std::size_t valueEnd = text.find(',', value);
        if (damage == "cut") {
            text.erase(lineEnd - 1, 1);
            text.erase(valueEnd - 1, 1);
        } else if (damage == "duplicate key") {
            text.insert(lineStart + 1,
                        text.substr(lineStart + 1,
                                    text.find(',', lineStart) - lineStart));
        } else {
            text.insert(valueEnd, 1, '"');
            text.insert(value, 1, '"');
        }
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

        const campaign::EngineReport resumed =
            campaign::runCampaign(engineConfig(dir.str()), pool);
        EXPECT_TRUE(resumed.complete);
        EXPECT_EQ(resumed.tornResultLines, 1u);
        EXPECT_EQ(resumed.jobsRequeued, 1u) << "the damaged job must re-run";
        EXPECT_EQ(slurp(dir.str() + "/aggregate.json"),
                  slurp(ref.str() + "/aggregate.json"));
    }
}

TEST(EngineTest, NamesEachDamagedJournalRecord)
{
    // One interior line of each journal loses its closing brace: the
    // journal reads --status makes and the resumed run's report name
    // both records as file:line, and the torn-line counts stay one per
    // journal.
    TempDir ref("namedref"), dir("named");
    exp::ThreadPool pool(1);
    const campaign::EngineReport expected =
        campaign::runCampaign(engineConfig(ref.str()), pool);
    auto config = engineConfig(dir.str());
    config.maxJobsThisRun = 3;
    campaign::runCampaign(config, pool);

    const auto cutLine = [](const std::string& path, int line) {
        std::string text = slurp(path);
        std::size_t start = 0;
        for (int i = 1; i < line; ++i)
            start = text.find('\n', start) + 1;
        const std::size_t end = text.find('\n', start);
        ASSERT_NE(text.find('\n', end + 1), std::string::npos)
            << path << ":" << line << " is not interior";
        ASSERT_EQ(text[end - 1], '}');
        text.erase(end - 1, 1);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    };
    const std::string manifest = dir.str() + "/manifest.jsonl";
    const std::string results = dir.str() + "/results.jsonl";
    cutLine(manifest, 3);
    cutLine(results, 2);

    const std::vector<std::string> names{manifest + ":3", results + ":2"};
    campaign::ManifestRecovery rec = campaign::readManifest(manifest);
    EXPECT_EQ(rec.tornLines, 1u);
    EXPECT_EQ(campaign::readResults(results, rec.totalJobs,
                                    [](const campaign::JobResult&) {},
                                    &rec.damagedRecords),
              1u);
    EXPECT_EQ(rec.damagedRecords, names);

    const campaign::EngineReport resumed =
        campaign::runCampaign(engineConfig(dir.str()), pool);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.tornManifestLines, 1u);
    EXPECT_EQ(resumed.tornResultLines, 1u);
    EXPECT_EQ(resumed.damagedRecords, names);
    EXPECT_EQ(resumed.aggregateJson, expected.aggregateJson);
}

TEST(EngineTest, RefusesJobRecordsBehindADamagedHeader)
{
    // The header is the journal's identity guard: job records without a
    // readable one belong to an unknown campaign.
    TempDir dir("nohead");
    exp::ThreadPool pool(1);
    auto config = engineConfig(dir.str());
    config.maxJobsThisRun = 2;
    campaign::runCampaign(config, pool);

    const std::string path = dir.str() + "/manifest.jsonl";
    std::string text = slurp(path);
    const std::size_t nl = text.find('\n');
    ASSERT_EQ(text[nl - 1], '}');
    text.erase(nl - 1, 1);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    const campaign::ManifestRecovery rec = campaign::readManifest(path);
    EXPECT_FALSE(rec.hasHeader);
    EXPECT_TRUE(rec.sawAnyJob);
    EXPECT_EQ(rec.tornLines, 1u);
    EXPECT_THROW(campaign::runCampaign(engineConfig(dir.str()), pool),
                 std::runtime_error);
    EXPECT_EQ(slurp(path), text);
}

TEST(EngineTest, RefusesAJournalHeldByAnotherWriter)
{
    TempDir dir("held");
    exp::ThreadPool pool(1);
    auto config = engineConfig(dir.str());
    config.maxJobsThisRun = 2;
    campaign::runCampaign(config, pool);
    const std::string manifestPath = dir.str() + "/manifest.jsonl";
    const std::string resultsPath = dir.str() + "/results.jsonl";
    const std::string manifest = slurp(manifestPath);
    const std::string results = slurp(resultsPath);

    // Another campaign's writer: an exclusive flock on the manifest.
    const int fd = ::open(manifestPath.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);
    try {
        campaign::runCampaign(engineConfig(dir.str()), pool);
        ADD_FAILURE() << "runCampaign ran against a held journal";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("held by another writer"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(slurp(manifestPath), manifest);
    EXPECT_EQ(slurp(resultsPath), results);
    ::close(fd);
    EXPECT_TRUE(campaign::runCampaign(engineConfig(dir.str()), pool).complete);
}

TEST(EngineTest, RefusesSpacesWhoseJobsCannotRun)
{
    // A 1 ps duty period would schedule 8e9 attack windows before the
    // first job ran, and a 1e-300 s slice overflows the slice plan.
    // Both are refused up front, naming the field, and journal nothing.
    TempDir dir("bounds");
    exp::ThreadPool pool(1);
    auto expectRefused = [&](const campaign::EngineConfig& config,
                             const std::string& field) {
        try {
            campaign::runCampaign(config, pool);
            ADD_FAILURE() << "runCampaign ran with a tiny " << field;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
        EXPECT_TRUE(fs::is_empty(dir.str()));
    };
    auto tinyDuty = engineConfig(dir.str());
    tinyDuty.space.scenarios[1].dutyPeriodS = 1e-12;
    tinyDuty.space.scenarios[1].dutyOnFrac = 0.5;
    expectRefused(tinyDuty, "duty.period_s");
    auto tinySlice = engineConfig(dir.str());
    tinySlice.space.sliceSimSeconds = 1e-300;
    expectRefused(tinySlice, "slice_s");
}

TEST(EngineTest, SpatialSpecScenarioInterruptResumesByteIdentical)
{
    // A grid-placed burst scenario built from a declarative spec — the
    // exact wiring campaign_runner --spec uses — must satisfy the same
    // interrupt/resume oracle as the flag-driven spaces.
    const char* text = R"({
      "version": 1,
      "seed": 31,
      "scenario": {
        "kind": "burst",
        "freq_hz": 27000000,
        "power_dbm": 35,
        "grid": {"rows": 6, "cols": 6, "row": 2, "col": 4},
        "burst": {"count": 2, "on_s": 0.002, "gap_s": 0.001}
      },
      "engine": {"seeds": 2, "sim_s": 0.008, "slice_s": 0.002}
    })";
    fault::FaultSpec spec;
    std::string error;
    ASSERT_TRUE(fault::parseSpec(text, &spec, &error)) << error;

    auto makeConfig = [&](const std::string& dir) {
        campaign::EngineConfig config = engineConfig(dir);
        fault::applyToEngine(spec, &config);
        return config;
    };
    EXPECT_EQ(fault::resolveSeed(spec), 31u);

    TempDir ref("specref"), cut("speccut");
    exp::ThreadPool pool(1);
    auto expected = campaign::runCampaign(makeConfig(ref.str()), pool);
    EXPECT_TRUE(expected.complete);
    // The spatial axis must actually bite: attacked groups fall behind
    // their clean baselines (the grid cell scales coupling, it never
    // disables the attack outright at this power).
    EXPECT_NE(expected.aggregateJson.find("/burst"), std::string::npos);

    std::atomic<bool> armed{false};
    std::atomic<int> checks{0};
    auto config = makeConfig(cut.str());
    config.beforeJob = [&](std::uint64_t job) {
        if (job == 2)
            armed.store(true);
    };
    config.stopRequested = [&] { return armed.load() && ++checks > 2; };
    auto interrupted = campaign::runCampaign(config, pool);
    EXPECT_FALSE(interrupted.complete);

    auto resumed = campaign::runCampaign(makeConfig(cut.str()), pool);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.aggregateJson, expected.aggregateJson);
}

TEST(EngineTest, ScenarioGridAndBurstAxesChangeConfigHash)
{
    campaign::CampaignSpace space = smallSpace();
    const std::uint64_t base = space.configHash();
    campaign::CampaignSpace grid = smallSpace();
    grid.scenarios[1].gridRows = 4;
    grid.scenarios[1].gridCols = 4;
    EXPECT_NE(grid.configHash(), base);
    campaign::CampaignSpace cell = grid;
    cell.scenarios[1].gridCol = 1;
    EXPECT_NE(cell.configHash(), grid.configHash());
    campaign::CampaignSpace burst = smallSpace();
    burst.scenarios[1].burstCount = 2;
    burst.scenarios[1].burstOnS = 0.001;
    EXPECT_NE(burst.configHash(), base);
}

TEST(EngineTest, QuarantineNoteRecordsSpecPath)
{
    TempDir dir("specquar");
    exp::ThreadPool pool(1);
    auto config = engineConfig(dir.str());
    config.space.workloads = {"__poison__"};
    config.specPath = "examples/emi_grid_spec.json";
    auto report = campaign::runCampaign(config, pool);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.jobsQuarantined, report.jobsTotal);

    std::ifstream in(dir.str() + "/manifest.jsonl", std::ios::binary);
    std::string manifest((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(
        manifest.find("attempts exhausted; spec=examples/emi_grid_spec.json"),
        std::string::npos)
        << manifest;
}

TEST(EngineTest, JobSpaceDecodeCoversEveryCombination)
{
    campaign::CampaignSpace space = smallSpace();
    const std::uint64_t n = space.jobCount();
    EXPECT_EQ(n, 2u * 2u * 2u);
    std::set<std::string> distinct;
    for (std::uint64_t id = 0; id < n; ++id) {
        campaign::JobSpec spec = jobAt(space, id);
        EXPECT_EQ(spec.job, id);
        distinct.insert(spec.workload + "|" +
                        compiler::schemeName(spec.scheme) + "|" +
                        campaign::scenarioName(spec.scenario.kind) + "|" +
                        std::to_string(spec.seed));
    }
    EXPECT_EQ(distinct.size(), n);
    // The config hash pins the space identity.
    campaign::CampaignSpace other = smallSpace();
    EXPECT_EQ(space.configHash(), other.configHash());
    other.simSeconds *= 2;
    EXPECT_NE(space.configHash(), other.configHash());
}


// ---------------------------------------------------------------------
// Snapshot layout pin: the stats blocks of the archive come from the
// stats structs' field lists, so a dropped, duplicated or reordered
// entry changes these bytes.  The constants pin snapshot format v3
// (kSnapshotVersion): a layout change must bump the version.
// ---------------------------------------------------------------------

/** 64-bit FNV-1a over a blob. */
std::uint64_t
fnv1a64(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(SnapshotLayoutTest, PinnedBytesWithEveryStatsStructLive)
{
    // GECKO with the adaptive controller under a 27 MHz tone on an
    // outage supply: machine, simulation, runtime and defense counters
    // all move, so every stats block carries data.
    const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    const device::DeviceProfile& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 4096;
    cfg.jitRamWords = 64;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    cfg.monitorSeed = 7;
    ASSERT_TRUE(defense::presetByName("adaptive", &cfg.defense));
    campaign::Scenario tone;
    tone.kind = campaign::ScenarioKind::kTone;
    tone.freqHz = 27e6;
    tone.outagePeriodS = 0.008;
    tone.outageOnFrac = 0.75;
    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    campaign::ScenarioEnv env(tone, dev, cfg.monitorKind, 7, 0.02);
    sim::IntermittentSim simulation(compiled, dev, cfg, env.supply(), io);
    env.attach(simulation);
    simulation.run(0.02);

    ASSERT_GT(simulation.machine().stats.cycles, 0u);
    ASSERT_GT(simulation.stats.reboots, 0u);
    ASSERT_GT(simulation.geckoRuntime().stats.jitRestores, 0u);
    ASSERT_NE(simulation.defenseController(), nullptr);
    ASSERT_GT(simulation.defenseController()->stats().escalations, 0u);

    const std::vector<std::uint8_t> blob =
        campaign::saveSimSnapshot(simulation, io);
    EXPECT_EQ(blob.size(), 21334u);
    EXPECT_EQ(fnv1a64(blob), 14621799556015642105ull);
}

}  // namespace
}  // namespace gecko
