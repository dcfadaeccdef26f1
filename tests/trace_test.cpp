#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "attack/spatial.hpp"
#include "compiler/pipeline.hpp"
#include "fault/campaign.hpp"
#include "fault/injectors.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/parallel.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"
#include "sim/intermittent_sim.hpp"
#include "trace/export.hpp"
#include "trace/invariants.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * The golden-trace differential suite.
 *
 * A canonical workload x scheme matrix runs under intermittent power
 * (plus EMI-attack scenarios), records its protocol events, and the
 * merged JSONL trace is diffed byte-for-byte against the checked-in
 * goldens in tests/golden/.  On top of the golden match, the suite
 * asserts the determinism contracts directly: the step and block tiers
 * trace identically, and the merged trace is byte-identical across
 * thread-pool widths.  Everything else, the goldens included, runs on
 * the block tier every figure uses.
 *
 * Regenerating goldens (after an intentional schema or protocol
 * change — never to silence a diff you can't explain):
 *
 *     GECKO_UPDATE_GOLDEN=1 ./build/tests/trace_test
 *
 * then review the golden diff like source code.  The goldens are
 * defined at the default global seed; a nonzero GECKO_SEED skips the
 * golden comparison (the determinism properties still run).
 */

namespace gecko {
namespace {

using compiler::Scheme;

/** One canonical traced scenario. */
struct Scenario {
    std::string workload;
    Scheme scheme;
    bool attack = false;  ///< EMI-attack scenario vs plain harvesting

    std::string label() const
    {
        return workload + "|" + compiler::schemeName(scheme) +
               (attack ? "|attack" : "|harvest");
    }
};

std::vector<Scenario>
scenarioMatrix()
{
    std::vector<Scenario> m;
    for (const char* w : {"crc16", "sensor_loop"})
        for (Scheme s :
             {Scheme::kNvp, Scheme::kRatchet, Scheme::kGecko})
            m.push_back({w, s, false});
    // The paper's attack victim under a scheduled resonant tone.
    m.push_back({"sensor_loop", Scheme::kNvp, true});
    m.push_back({"sensor_loop", Scheme::kGecko, true});
    return m;
}

/**
 * Run one scenario into whatever trace buffer is current.  Every call
 * owns its simulator; the compiled program is rebuilt per call so
 * scenarios are order-independent (no shared lazy caches).
 */
void
runScenario(const Scenario& sc,
            sim::ExecBackend backend = sim::ExecBackend::kBlock)
{
    const auto& dev = device::DeviceDb::msp430fr5994();
    auto compiled =
        compiler::compile(workloads::build(sc.workload), sc.scheme);
    sim::IoHub io;
    workloads::setupIo(sc.workload, io);

    sim::SimConfig cfg;
    cfg.jitRamWords = 4;  // small CTPL padding keeps the suite fast
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;

    std::unique_ptr<energy::Harvester> harvester;
    if (sc.attack)
        harvester = std::make_unique<energy::ConstantHarvester>(3.3, 5.0);
    else
        harvester = std::make_unique<energy::SquareWaveHarvester>(
            3.3, 5.0, 0.004, 0.004);

    sim::IntermittentSim simulation(compiled, dev, cfg, *harvester, io);
    simulation.machine().setExecBackend(backend);

    attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.1);
    attack::EmiSource source(rig, 27e6, 35.0);
    attack::AttackSchedule schedule(
        {{0.005, 0.012, 27e6, 35.0}, {0.018, 0.025, 27e6, 35.0}});
    if (sc.attack) {
        simulation.setEmiSource(&source);
        simulation.setAttackSchedule(&schedule);
    }
    simulation.run(0.03);
}

/** Trace one scenario into a standalone buffer. */
trace::Buffer
traceScenario(const Scenario& sc,
              sim::ExecBackend backend = sim::ExecBackend::kBlock)
{
    trace::Buffer buffer;
    buffer.setLabel(sc.label());
    {
        trace::BufferScope scope(&buffer);
        runScenario(sc, backend);
    }
    return buffer;
}

/**
 * The spatial arc: the attack victim irradiated from one cell of an
 * 8x8 injection-point grid (DESIGN.md §15).  The tone rides through a
 * GridRig, so the on-edge emits a kSpatialHit carrying the cell index
 * and its coupling factor.
 */
void
runSpatialArcScenario()
{
    const auto& dev = device::DeviceDb::msp430fr5994();
    auto compiled =
        compiler::compile(workloads::build("sensor_loop"), Scheme::kGecko);
    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);

    sim::SimConfig cfg;
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;

    energy::ConstantHarvester harvester(3.3, 5.0);
    sim::IntermittentSim simulation(compiled, dev, cfg, harvester, io);

    attack::RemoteRig base(dev, analog::MonitorKind::kAdc, 0.1);
    attack::SpatialGrid grid(8, 8);
    attack::GridRig rig(base, grid, 3, 5);
    attack::EmiSource source(rig, 27e6, 35.0);
    source.setGridTag(rig.cell(), rig.couplingMilli(27e6));
    attack::AttackSchedule schedule(
        {{0.005, 0.012, 27e6, 35.0}, {0.018, 0.025, 27e6, 35.0}});
    simulation.setEmiSource(&source);
    simulation.setAttackSchedule(&schedule);
    simulation.run(0.03);
}

/**
 * The instruction-fault arc: one campaign case whose glitch skips an
 * instruction mid-interval (kInstrFault), followed by the post-glitch
 * checkpoint mask and recovery.
 */
void
runInstrFaultArcScenario()
{
    fault::CaseSpec spec;
    spec.workload = "crc16";
    spec.scheme = Scheme::kGecko;
    spec.injector = fault::InjectorKind::kInstrSkip;
    spec.seed = 0x9e3779b97f4a7c16ull;
    fault::runCase(spec, 0.4);
}

/**
 * Record the whole matrix into `collector` on `pool`, then the two
 * serial fault arcs (spatial hit, instruction fault) that extend the
 * golden with the PR's new event kinds.
 */
void
traceMatrix(trace::Collector& collector, exp::ThreadPool& pool)
{
    const std::vector<Scenario> matrix = scenarioMatrix();
    exp::parallelMap(pool, matrix, [&](const Scenario& sc) {
        trace::CaseScope scope(
            &collector, sc.label(),
            static_cast<std::uint64_t>(&sc - matrix.data()));
        runScenario(sc);
        return 0;
    });
    {
        trace::CaseScope scope(&collector, "spatial_arc", matrix.size());
        runSpatialArcScenario();
    }
    {
        trace::CaseScope scope(&collector, "instr_fault_arc",
                               matrix.size() + 1);
        runInstrFaultArcScenario();
    }
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Diff `actual` against the golden file, printing the first divergent
 * line with +-3 lines of context on mismatch.  With GECKO_UPDATE_GOLDEN
 * set, rewrites the golden instead (the only sanctioned way to change
 * files under tests/golden/).
 */
void
expectGoldenMatch(const std::string& name, const std::string& actual)
{
    const std::string path = std::string(GECKO_GOLDEN_DIR) + "/" + name;
    const char* update = std::getenv("GECKO_UPDATE_GOLDEN");
    if (update && *update) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << actual;
        std::cout << "[golden] regenerated " << path << " ("
                  << actual.size() << " bytes)\n";
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " -- generate it with GECKO_UPDATE_GOLDEN=1";
    std::ostringstream os;
    os << in.rdbuf();
    const std::string golden = os.str();
    if (golden == actual)
        return;

    const std::vector<std::string> a = splitLines(golden);
    const std::vector<std::string> b = splitLines(actual);
    std::size_t first = 0;
    while (first < a.size() && first < b.size() && a[first] == b[first])
        ++first;
    std::ostringstream diff;
    diff << "golden mismatch: " << name << " (golden " << a.size()
         << " lines, actual " << b.size() << " lines, first divergence "
         << "at line " << first + 1 << ")\n";
    const std::size_t lo = first >= 3 ? first - 3 : 0;
    for (std::size_t i = lo; i <= first + 3; ++i) {
        if (i < a.size())
            diff << "  golden " << i + 1 << ": " << a[i] << "\n";
        if (i < b.size())
            diff << "  actual " << i + 1 << ": " << b[i] << "\n";
    }
    diff << "If the change is intentional, regenerate with "
            "GECKO_UPDATE_GOLDEN=1 and review the golden diff.";
    FAIL() << diff.str();
}

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!trace::compiledIn())
            GTEST_SKIP() << "tracing compiled out (GECKO_TRACE=0)";
    }
};

TEST_F(TraceTest, RingBufferKeepsNewestAndCountsDrops)
{
    trace::Buffer small(8);
    for (int i = 0; i < 20; ++i) {
        small.setTime(i * 0.5);
        small.emit(trace::EventKind::kWakeSignal, 0,
                   static_cast<std::uint64_t>(i), 0);
    }
    EXPECT_EQ(small.size(), 8u);
    EXPECT_EQ(small.dropped(), 12u);
    std::vector<trace::Event> events = small.events();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].a, 12 + i) << "oldest events evicted first";
        EXPECT_EQ(events[i].seq, 12 + i) << "seq survives eviction";
    }
}

TEST_F(TraceTest, EventNamesAndIdsAreStable)
{
    // Wire IDs are append-only; goldens and external tooling key on
    // them.  Spot-check the schema anchors.
    EXPECT_EQ(static_cast<int>(trace::EventKind::kRegionCommit), 1);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kBoot), 16);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kJitSaveStart), 32);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kJitRestore), 48);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kThresholdCross), 64);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kEmiOn), 80);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kSpatialHit), 82);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kFaultInject), 96);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kInstrFault), 97);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kDefenseAnomaly), 112);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kDefenseModeChange), 113);
    EXPECT_EQ(static_cast<int>(trace::EventKind::kDefenseRatchetTrip),
              114);
    EXPECT_STREQ(trace::eventName(trace::EventKind::kRegionCommit),
                 "region_commit");
    EXPECT_STREQ(trace::eventName(trace::EventKind::kJitSaveTorn),
                 "jit_save_torn");
    EXPECT_STREQ(trace::eventName(trace::EventKind::kFaultInject),
                 "fault_inject");
    EXPECT_STREQ(trace::eventName(trace::EventKind::kSpatialHit),
                 "spatial_hit");
    EXPECT_STREQ(trace::eventName(trace::EventKind::kInstrFault),
                 "instr_fault");
    EXPECT_STREQ(trace::eventName(trace::EventKind::kDefenseAnomaly),
                 "defense_anomaly");
    EXPECT_STREQ(trace::eventName(trace::EventKind::kDefenseModeChange),
                 "defense_mode_change");
    EXPECT_STREQ(trace::eventName(trace::EventKind::kDefenseRatchetTrip),
                 "defense_ratchet_trip");
}

TEST_F(TraceTest, MacroIsInertWithoutACurrentBuffer)
{
    ASSERT_EQ(trace::current(), nullptr);
    // Must not crash and must not observably do anything.
    GECKO_TRACE_EVENT(trace::EventKind::kBoot, 0, 1, 2);
    GECKO_TRACE_TIME(1.0);
    EXPECT_EQ(trace::current(), nullptr);
}

TEST_F(TraceTest, StepAndBlockTiersTraceIdentically)
{
    for (const Scenario& sc : scenarioMatrix()) {
        trace::Buffer block = traceScenario(sc, sim::ExecBackend::kBlock);
        trace::Buffer step = traceScenario(sc, sim::ExecBackend::kStep);
        ASSERT_GT(block.size(), 0u) << sc.label();
        EXPECT_TRUE(block.events() == step.events())
            << sc.label()
            << ": the step and block tiers must emit identical traces";
    }
}

TEST_F(TraceTest, MergedTraceIsThreadCountInvariant)
{
    trace::Collector serial;
    {
        exp::ThreadPool one(1);
        traceMatrix(serial, one);
    }
    trace::Collector parallel;
    {
        exp::ThreadPool eight(8);
        traceMatrix(parallel, eight);
    }
    EXPECT_EQ(trace::toJsonl(serial), trace::toJsonl(parallel))
        << "merged trace bytes must not depend on the pool width";
}

TEST_F(TraceTest, ProtocolInvariantsHoldPerScenario)
{
    for (const Scenario& sc : scenarioMatrix()) {
        trace::Buffer buffer = traceScenario(sc);
        std::vector<std::string> violations =
            trace::checkInvariants(buffer.events());
        EXPECT_TRUE(violations.empty())
            << sc.label() << ": "
            << (violations.empty() ? "" : violations.front()) << " ("
            << violations.size() << " violations)";
    }
}

TEST_F(TraceTest, AttackScenarioCarriesTheAttackStoryline)
{
    // The traced attack run must contain the causal chain the paper's
    // figures tell: tone keyed on, monitor trips flagged as
    // attack-window trips, and under GECKO a detection event.
    trace::Buffer buffer =
        traceScenario({"sensor_loop", Scheme::kGecko, true});
    bool sawEmiOn = false, sawEmiOff = false, sawAttackTrip = false;
    for (const trace::Event& e : buffer.events()) {
        const auto kind = static_cast<trace::EventKind>(e.kind);
        if (kind == trace::EventKind::kEmiOn)
            sawEmiOn = true;
        if (kind == trace::EventKind::kEmiOff)
            sawEmiOff = true;
        if (kind == trace::EventKind::kMonitorTrip &&
            (e.flags & trace::kFlagAttack))
            sawAttackTrip = true;
    }
    EXPECT_TRUE(sawEmiOn) << "tone on-edge missing";
    EXPECT_TRUE(sawEmiOff) << "tone off-edge missing";
    EXPECT_TRUE(sawAttackTrip)
        << "no monitor trip inside the attack window";
}

TEST_F(TraceTest, GoldenTraceMatrix)
{
    if (exp::globalSeed() != 0)
        GTEST_SKIP() << "goldens are defined at the default seed";
    trace::Collector collector;
    exp::ThreadPool one(1);
    traceMatrix(collector, one);
    ASSERT_GT(collector.totalEvents(), 0u);
    EXPECT_EQ(collector.totalDropped(), 0u)
        << "golden scenarios must fit the ring";
    const std::string jsonl = trace::toJsonl(collector);
    // The two serial arcs must actually exercise their event kinds —
    // a golden without them would silently lose the new coverage.
    EXPECT_NE(jsonl.find("\"spatial_hit\""), std::string::npos)
        << "spatial_arc emitted no kSpatialHit";
    EXPECT_NE(jsonl.find("\"instr_fault\""), std::string::npos)
        << "instr_fault_arc emitted no kInstrFault";
    expectGoldenMatch("trace_matrix.jsonl", jsonl);
}

/**
 * The adaptive-defense scenario (DESIGN.md §11): the trace-test victim
 * with the online controller armed, under the same two-burst tone as
 * the attack scenarios.  Hysteresis knobs are shortened so the full
 * detect → escalate → de-escalate arc fits the 30 ms run.
 */
void
runDefenseArcScenario()
{
    const auto& dev = device::DeviceDb::msp430fr5994();
    auto compiled =
        compiler::compile(workloads::build("sensor_loop"), Scheme::kGecko);
    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);

    sim::SimConfig cfg;
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    cfg.defense.enabled = true;
    cfg.defense.calmSamples = 4;
    cfg.defense.decayPerSample = 0.2;

    energy::ConstantHarvester harvester(3.3, 5.0);
    sim::IntermittentSim simulation(compiled, dev, cfg, harvester, io);

    attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.1);
    attack::EmiSource source(rig, 27e6, 35.0);
    attack::AttackSchedule schedule(
        {{0.005, 0.012, 27e6, 35.0}, {0.018, 0.025, 27e6, 35.0}});
    simulation.setEmiSource(&source);
    simulation.setAttackSchedule(&schedule);
    simulation.run(0.03);
}

TEST_F(TraceTest, GoldenDefenseArc)
{
    if (exp::globalSeed() != 0)
        GTEST_SKIP() << "goldens are defined at the default seed";
    trace::Collector collector;
    {
        trace::CaseScope scope(&collector, "defense_arc", 0);
        runDefenseArcScenario();
    }

    trace::Buffer probe;
    {
        trace::BufferScope scope(&probe);
        runDefenseArcScenario();
    }
    // The arc the controller must tell: an anomaly fires, the mode
    // ladder climbs to at least kUnderAttack, work still commits after
    // the first escalation, and the run ends back at kNominal.
    bool sawAnomaly = false;
    std::uint64_t maxMode = 0, lastMode = 0;
    bool commitAfterEscalation = false, escalated = false;
    for (const trace::Event& e : probe.events()) {
        const auto kind = static_cast<trace::EventKind>(e.kind);
        if (kind == trace::EventKind::kDefenseAnomaly)
            sawAnomaly = true;
        if (kind == trace::EventKind::kDefenseModeChange) {
            maxMode = std::max(maxMode, e.a);
            lastMode = e.a;
            escalated = true;
        }
        if (kind == trace::EventKind::kRegionCommit && escalated)
            commitAfterEscalation = true;
    }
    EXPECT_TRUE(sawAnomaly) << "no defense_anomaly event";
    EXPECT_GE(maxMode, 2u) << "never reached under_attack";
    EXPECT_EQ(lastMode, 0u) << "did not de-escalate back to nominal";
    EXPECT_TRUE(commitAfterEscalation)
        << "no forward progress after escalation";
    EXPECT_TRUE(trace::checkInvariants(probe.events()).empty());

    expectGoldenMatch("defense_arc.jsonl", trace::toJsonl(collector));
}

TEST_F(TraceTest, ExportersAgreeWithExtension)
{
    trace::Collector collector;
    {
        trace::CaseScope scope(&collector, "export", 0);
        runScenario({"crc16", Scheme::kGecko, false});
    }

    const std::string jsonl = trace::toJsonl(collector);
    ASSERT_FALSE(jsonl.empty());
    EXPECT_EQ(jsonl.rfind("{\"schema\":\"gecko-trace\"", 0), 0u);

    const std::string chrome = trace::toChromeTrace(collector);
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.find("thread_name"), std::string::npos);

    const std::string dir = ::testing::TempDir();
    const std::string jsonlPath = dir + "/gecko_trace_test.jsonl";
    const std::string chromePath = dir + "/gecko_trace_test.json";
    ASSERT_TRUE(trace::writeTraceFile(collector, jsonlPath));
    ASSERT_TRUE(trace::writeTraceFile(collector, chromePath));
    auto slurp = [](const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    EXPECT_EQ(slurp(jsonlPath), jsonl);
    EXPECT_EQ(slurp(chromePath), chrome);
    std::remove(jsonlPath.c_str());
    std::remove(chromePath.c_str());
}

TEST_F(TraceTest, CaseScopeWithNullCollectorSuppressesTracing)
{
    trace::Buffer outer;
    trace::BufferScope outerScope(&outer);
    {
        // A null collector must install nullptr, not inherit `outer`:
        // with GECKO_THREADS=1 case bodies run inline on the caller's
        // thread and would otherwise leak into the outer buffer.
        trace::CaseScope scope(nullptr, "suppressed", 0);
        EXPECT_EQ(trace::current(), nullptr);
        GECKO_TRACE_EVENT(trace::EventKind::kBoot, 0, 0, 0);
    }
    EXPECT_EQ(trace::current(), &outer);
    EXPECT_EQ(outer.size(), 0u);
}

}  // namespace
}  // namespace gecko
