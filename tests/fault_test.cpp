#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>

#include "compiler/pipeline.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/corpus.hpp"
#include "fault/injectors.hpp"
#include "runtime/gecko_runtime.hpp"
#include "sim/jit_checkpoint.hpp"
#include "sim/nvm.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * The fault-injection subsystem: CRC/guarded-slot primitives, JIT-image
 * validity lifecycle, injector mutations, corpus round-trips, and the
 * campaign's determinism and discrimination guarantees (NVP corrupts,
 * GECKO never does) on a small grid.
 */

namespace gecko::fault {
namespace {

using compiler::Scheme;
using sim::JitCheckpoint;
using sim::Nvm;

TEST(CrcTest, DetectsEverySingleBitFlip)
{
    std::uint32_t words[4] = {0xdeadbeef, 0, 42, 0x80000000};
    std::uint32_t good = sim::crc32Words(words, 4);
    for (int w = 0; w < 4; ++w) {
        for (int b = 0; b < 32; ++b) {
            words[w] ^= 1u << b;
            EXPECT_NE(sim::crc32Words(words, 4), good)
                << "word " << w << " bit " << b;
            words[w] ^= 1u << b;
        }
    }
    EXPECT_EQ(sim::crc32Words(words, 4), good);
}

TEST(CrcTest, AllZeroDataValidatesAgainstZeroCrc)
{
    std::uint32_t zeros[8] = {};
    EXPECT_EQ(sim::crc32Words(zeros, 8), 0u);
}

TEST(GuardedSlotTest, RepairsPrimaryCorruptionFromShadow)
{
    Nvm nvm(64);
    nvm.writeSlot(3, 1, 0xdeadbeef);
    EXPECT_EQ(nvm.slotWrites, 2u);  // value+crc line and shadow line

    nvm.slots[3][1] ^= 0x10;  // disturb the primary value word
    sim::SlotRead sr = nvm.readSlotGuarded(3, 1);
    EXPECT_TRUE(sr.repaired);
    EXPECT_FALSE(sr.unrecoverable);
    EXPECT_EQ(sr.value, 0xdeadbeefu);
}

TEST(GuardedSlotTest, DoubleCorruptionIsFlaggedUnrecoverable)
{
    Nvm nvm(64);
    nvm.writeSlot(0, 0, 77);
    nvm.slots[0][0] ^= 2;
    nvm.slotShadow[0][0] ^= 4;
    sim::SlotRead sr = nvm.readSlotGuarded(0, 0);
    EXPECT_TRUE(sr.unrecoverable);
}

TEST(GuardedSlotTest, CrossPairRecoveryCoversMultiWordHits)
{
    // Multi-word hits on the same slot pair: any surviving value word
    // is vouched for by the sibling check word, and two agreeing value
    // words survive the loss of both check words.
    {
        Nvm nvm(64);  // primary value + primary CRC hit
        nvm.writeSlot(2, 3, 0xcafe0001);
        nvm.slots[2][3] ^= 0x40;
        nvm.slotCrc[2][3] ^= 0x9;
        sim::SlotRead sr = nvm.readSlotGuarded(2, 3);
        EXPECT_TRUE(sr.repaired);
        EXPECT_EQ(sr.value, 0xcafe0001u);
    }
    {
        Nvm nvm(64);  // shadow value + primary CRC hit
        nvm.writeSlot(2, 3, 0xcafe0002);
        nvm.slotShadow[2][3] ^= 0x40;
        nvm.slotCrc[2][3] ^= 0x9;
        sim::SlotRead sr = nvm.readSlotGuarded(2, 3);
        EXPECT_TRUE(sr.repaired);
        EXPECT_EQ(sr.value, 0xcafe0002u);
    }
    {
        Nvm nvm(64);  // both check words hit, value words agree
        nvm.writeSlot(2, 3, 0xcafe0003);
        nvm.slotCrc[2][3] ^= 0x1;
        nvm.slotShadowCrc[2][3] ^= 0x2;
        sim::SlotRead sr = nvm.readSlotGuarded(2, 3);
        EXPECT_TRUE(sr.repaired);
        EXPECT_EQ(sr.value, 0xcafe0003u);
    }
    {
        Nvm nvm(64);  // value word plus every witness for it: flagged
        nvm.writeSlot(2, 3, 0xcafe0004);
        nvm.slots[2][3] ^= 0x40;
        nvm.slotCrc[2][3] ^= 0x9;
        nvm.slotShadow[2][3] ^= 0x100;
        sim::SlotRead sr = nvm.readSlotGuarded(2, 3);
        EXPECT_TRUE(sr.unrecoverable);
    }
}

TEST(GuardedSlotTest, ScrubReArmsRepairedPair)
{
    Nvm nvm(64);
    nvm.writeSlot(1, 0, 0xfeed);
    nvm.slots[1][0] ^= 0x8;
    sim::SlotRead sr = nvm.readSlotGuarded(1, 0);
    ASSERT_TRUE(sr.repaired);
    nvm.scrubSlot(1, 0, sr.value);
    // A later hit on the *other* copy would have combined with the
    // latent primary corruption without the scrub; post-scrub the
    // rewritten primary pair absorbs it outright.
    nvm.slotShadow[1][0] ^= 0x8;
    sim::SlotRead again = nvm.readSlotGuarded(1, 0);
    EXPECT_FALSE(again.unrecoverable);
    EXPECT_EQ(again.value, 0xfeedu);
}

// Regression pins for the Ratchet slot-fault gap (EXPERIMENTS.md
// 12-injector table): the exact seed-42 campaign cases where rollback's
// raw primary-word reads let slot faults through before every scheme
// restored through the guarded read path.  Each case must now match
// its golden run.
TEST(CampaignRegressionTest, RatchetSlotFaultSurfacingSeedsRepair)
{
    struct Pin {
        const char* injector;
        std::uint64_t seed;
        std::int32_t word;
    };
    static const Pin kPins[] = {
        {"bitflip", 1644212235285245758ull, 4},
        {"bitflip", 2581850694104297520ull, 4},
        {"multibitflip", 5094330416887092295ull, 12},
        {"multibitflip", 8403125170301223055ull, 4},
        {"multibitflip", 4820481869918891970ull, 0},
        {"multibitflip", 9871016863728879931ull, 9},
        {"staleimage", 12781882269776521291ull, -1},
    };
    for (const Pin& pin : kPins) {
        CaseSpec spec;
        spec.workload = "sensor_loop";
        spec.scheme = Scheme::kRatchet;
        ASSERT_TRUE(injectorFromName(pin.injector, &spec.injector));
        spec.seed = pin.seed;
        spec.injectAtOverride = 0;
        spec.wordOverride = pin.word;
        CaseResult result = runCase(spec);
        EXPECT_EQ(result.outcome, CaseOutcome::kOk)
            << formatCorpusLine(result);
    }
}

struct ImageRig {
    compiler::CompiledProgram prog;
    Nvm nvm{1024};
    sim::IoHub io;
    sim::Machine machine;

    ImageRig()
        : prog(compiler::compile(workloads::build("bitcnt"), Scheme::kGecko)),
          machine(prog, nvm, io)
    {
        workloads::setupIo("bitcnt", io);
        std::uint64_t consumed = 0;
        machine.run(300, &consumed);
    }
};

TEST(JitImageTest, ValidityLifecycle)
{
    ImageRig rig;
    // Virgin all-zero area validates (cold start).
    EXPECT_TRUE(JitCheckpoint::imageValid(rig.nvm));

    JitCheckpoint::checkpoint(rig.machine, rig.nvm);
    EXPECT_TRUE(JitCheckpoint::imageValid(rig.nvm));

    // Consume-once: the same image must not roll forward twice.
    JitCheckpoint::consumeImage(rig.nvm);
    EXPECT_FALSE(JitCheckpoint::imageValid(rig.nvm));

    JitCheckpoint::checkpoint(rig.machine, rig.nvm);
    EXPECT_TRUE(JitCheckpoint::imageValid(rig.nvm));
}

TEST(JitImageTest, InjectorsInvalidateImage)
{
    exp::Rng rng(99);
    {
        ImageRig rig;
        JitCheckpoint::checkpoint(rig.machine, rig.nvm);
        corruptAckWord(rig.nvm, rng);
        EXPECT_FALSE(JitCheckpoint::imageValid(rig.nvm));
    }
    {
        ImageRig rig;
        JitCheckpoint::checkpoint(rig.machine, rig.nvm);
        corruptJitWord(rig.nvm, 1, rng);
        EXPECT_FALSE(JitCheckpoint::imageValid(rig.nvm));
    }
    {
        // Stale substitution: an older internally consistent image
        // fails the epoch comparison after the current one's consume.
        ImageRig rig;
        JitCheckpoint::checkpoint(rig.machine, rig.nvm);
        auto old = rig.nvm.jit;
        JitCheckpoint::consumeImage(rig.nvm);
        JitCheckpoint::checkpoint(rig.machine, rig.nvm);
        substituteJitImage(rig.nvm, old);
        EXPECT_FALSE(JitCheckpoint::imageValid(rig.nvm));
    }
}

TEST(InjectorTest, FlipBitsFlipsExactlyN)
{
    exp::Rng rng(5);
    for (int n = 1; n <= 3; ++n) {
        std::uint32_t v = 0xcafef00d;
        std::uint32_t flipped = flipBits(v, n, rng);
        EXPECT_EQ(std::bitset<32>(v ^ flipped).count(),
                  static_cast<std::size_t>(n));
    }
}

TEST(InjectorTest, NameTablesRoundTrip)
{
    for (int i = 0; i < kInjectorKinds; ++i) {
        auto kind = static_cast<InjectorKind>(i);
        InjectorKind back;
        ASSERT_TRUE(injectorFromName(injectorName(kind), &back));
        EXPECT_EQ(back, kind);
    }
    InjectorKind sink;
    EXPECT_FALSE(injectorFromName("bogus", &sink));
}

TEST(CorpusTest, LineRoundTrip)
{
    CaseResult r;
    r.spec.workload = "crc16";
    r.spec.scheme = Scheme::kGeckoNoPrune;
    r.spec.injector = InjectorKind::kTornWrite;
    r.spec.seed = 0xabcdef0123ull;
    r.injectAt = 7;
    r.word = 19;
    r.outcome = CaseOutcome::kDiverged;

    CorpusEntry entry;
    std::string err;
    ASSERT_TRUE(parseCorpusLine(formatCorpusLine(r), &entry, &err)) << err;
    EXPECT_EQ(entry.spec.workload, "crc16");
    EXPECT_EQ(entry.spec.scheme, Scheme::kGeckoNoPrune);
    EXPECT_EQ(entry.spec.injector, InjectorKind::kTornWrite);
    EXPECT_EQ(entry.spec.seed, 0xabcdef0123ull);
    EXPECT_EQ(entry.spec.injectAtOverride, 7);
    EXPECT_EQ(entry.spec.wordOverride, 19);
    EXPECT_EQ(entry.outcome, CaseOutcome::kDiverged);

    std::uint64_t seed = 0;
    auto entries = parseCorpus(formatCorpus(1234, {r}), &seed);
    EXPECT_EQ(seed, 1234u);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].spec.seed, r.spec.seed);
}

TEST(CorpusTest, DamagedNumbersAreRefusedNotTruncated)
{
    const std::string head =
        "case workload=crc16 scheme=GECKO injector=bitflip ";
    const std::string tail = " outcome=diverged";
    // Each value must be read whole: a prefix parse would replay seed
    // 12, seed 2^64 - 1 or injection event 7 and call it reproduced.
    for (const char* numbers :
         {"seed=12x injectAt=7 word=19", "seed=-1 injectAt=7 word=19",
          "seed= injectAt=7 word=19",
          "seed=18446744073709551616 injectAt=7 word=19",
          "seed=12 injectAt=7.5 word=19", "seed=12 injectAt=+7 word=19",
          "seed=12 injectAt=7 word=abc",
          "seed=12 injectAt=7 word=4294967296"}) {
        CorpusEntry entry;
        std::string err;
        EXPECT_FALSE(parseCorpusLine(head + numbers + tail, &entry, &err))
            << numbers;
        EXPECT_NE(err.find("bad "), std::string::npos) << err;
    }
    CorpusEntry entry;
    std::string err;
    ASSERT_TRUE(parseCorpusLine(head + "seed=12 injectAt=-1 word=-1" + tail,
                                &entry, &err))
        << err;
    EXPECT_EQ(entry.spec.injectAtOverride, -1);
    EXPECT_EQ(entry.spec.wordOverride, -1);

    // A damaged corpus names the line it could not read.
    std::uint64_t seed = 0;
    try {
        parseCorpus("# gecko-fault-corpus v1\n# seed 1\n" + head +
                        "seed=12x injectAt=7 word=19" + tail + "\n",
                    &seed);
        ADD_FAILURE() << "a damaged corpus line must not parse";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
            << e.what();
    }
}

TEST(CampaignTest, GridCoversEveryInjectorAndScheme)
{
    CampaignConfig config;
    config.cases = 300;
    auto specs = makeCampaignCases(config);
    ASSERT_EQ(specs.size(), 300u);
    std::array<int, kInjectorKinds> injectorSeen{};
    std::array<int, 4> schemeSeen{};
    for (const CaseSpec& s : specs) {
        ++injectorSeen[static_cast<std::size_t>(s.injector)];
        for (std::size_t i = 0; i < config.schemes.size(); ++i)
            if (config.schemes[i] == s.scheme)
                ++schemeSeen[i];
        if (isSimLevel(s.injector)) {
            EXPECT_EQ(s.workload, "sensor_loop");
        }
    }
    for (int i = 0; i < kInjectorKinds; ++i)
        EXPECT_GT(injectorSeen[static_cast<std::size_t>(i)], 0)
            << injectorName(static_cast<InjectorKind>(i));
    for (int count : schemeSeen)
        EXPECT_GT(count, 0);
    // Case seeds are pairwise distinct (mixSeed avalanche).
    EXPECT_NE(specs[0].seed, specs[1].seed);
    EXPECT_NE(specs[1].seed, specs[2].seed);
}

TEST(CampaignTest, DeterministicAcrossThreadCounts)
{
    CampaignConfig config;
    config.cases = 144;
    config.seed = 7;

    exp::ThreadPool serial(1);
    config.pool = &serial;
    CampaignResult a = runCampaign(config);

    exp::ThreadPool wide(3);
    config.pool = &wide;
    CampaignResult b = runCampaign(config);

    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.corpus, b.corpus);
    EXPECT_EQ(a.nvpCorruptions, b.nvpCorruptions);
    EXPECT_TRUE(a.totals == b.totals);
}

TEST(CampaignTest, NvpCorruptsAndGeckoSurvives)
{
    CampaignConfig config;
    config.cases = 288;
    config.seed = 7;
    exp::ThreadPool pool(3);
    config.pool = &pool;
    CampaignResult result = runCampaign(config);

    EXPECT_TRUE(result.geckoClean);
    EXPECT_EQ(result.geckoCorruptions, 0u);
    EXPECT_GT(result.nvpCorruptions, 0u);
    // The defences actually fired along the way.
    EXPECT_GT(result.totals.runtime.crcRejects, 0u);
    EXPECT_GT(result.totals.runtime.corruptedRestores, 0u);
}

TEST(CampaignTest, InstructionFaultsAreContainedAndTalliedSeparately)
{
    // An instr-only mix over NVP vs GECKO: instruction-stream faults
    // are a distinct threat class — they must never count against
    // geckoClean (no storage guard can see a wrong architectural
    // value), but GECKO's post-glitch checkpoint mask keeps its
    // corruption *rate* at or below NVP's (instrContained()).
    CampaignConfig config;
    config.cases = 288;
    config.seed = 7;
    config.workloads = {"crc16", "sensor_loop"};
    config.schemes = {Scheme::kNvp, Scheme::kGecko};
    config.injectorMix = {InjectorKind::kInstrSkip,
                          InjectorKind::kOpcodeCorrupt,
                          InjectorKind::kOperandFlip};
    exp::ThreadPool pool(3);
    config.pool = &pool;
    CampaignResult result = runCampaign(config);

    EXPECT_TRUE(result.geckoClean);
    EXPECT_EQ(result.geckoCorruptions, 0u);
    EXPECT_EQ(result.nvpCorruptions, 0u);  // no storage-class cases ran
    EXPECT_GT(result.instrGeckoCases, 0u);
    EXPECT_GT(result.instrNvpCases, 0u);
    EXPECT_GT(result.instrNvpCorruptions, 0u);
    EXPECT_TRUE(result.instrContained());
    // The report carries the per-class containment line.
    EXPECT_NE(result.report.find("instr gecko="), std::string::npos);
}

TEST(CampaignTest, CorpusCasesReplayStandalone)
{
    CampaignConfig config;
    config.cases = 144;
    config.seed = 7;
    exp::ThreadPool pool(2);
    config.pool = &pool;
    CampaignResult result = runCampaign(config);
    ASSERT_FALSE(result.corpusCases.empty());

    // Replay through the corpus *text*, exactly like the driver's
    // --replay path: parse each line back into a spec and re-run it.
    std::uint64_t seed = 0;
    auto entries = parseCorpus(result.corpus, &seed);
    EXPECT_EQ(seed, config.seed);
    ASSERT_EQ(entries.size(), result.corpusCases.size());
    for (const CorpusEntry& entry : entries) {
        CaseResult rerun = runCase(entry.spec);
        EXPECT_EQ(rerun.outcome, entry.outcome)
            << formatCorpusLine(rerun);
        EXPECT_TRUE(isCorruption(rerun.outcome));
    }
}

/** Every field of a case result that the minimiser hands on. */
void
expectSameResult(const CaseResult& got, const CaseResult& want,
                 const std::string& line)
{
    EXPECT_EQ(formatCorpusLine(got), formatCorpusLine(want)) << line;
    EXPECT_EQ(got.outcome, want.outcome) << line;
    EXPECT_EQ(got.detail, want.detail) << line;
    EXPECT_EQ(got.injectAt, want.injectAt) << line;
    EXPECT_EQ(got.word, want.word) << line;
    EXPECT_EQ(got.defended, want.defended) << line;
    EXPECT_TRUE(got.counters == want.counters) << line;
}

TEST(CampaignTest, MinimisedCaseEqualsAFreshRunOfItsSpec)
{
    // The minimiser hands back bisection's last failing probe, or — when
    // no probe failed — the case's own primary run with its effective
    // injection point and word pinned as overrides, instead of running
    // the final spec again.  Either must be exactly what a standalone
    // run of the minimised spec produces; for the primary run that rests
    // on the injectors drawing every value before applying an override.
    // The extra campaigns reach the pinned-primary path for the
    // multibitflip, operandflip, instrskip, opcodecorrupt, staleimage and
    // ackcorrupt injectors.
    exp::ThreadPool pool(2);
    int minimised = 0, pinned = 0;
    const struct {
        int cases;
        std::uint64_t seed;
    } campaigns[] = {{160, 42}, {160, 5}, {160, 11}, {320, 2}, {320, 3}};
    for (const auto& campaign : campaigns) {
        CampaignConfig config;
        config.cases = campaign.cases;
        config.seed = campaign.seed;
        config.pool = &pool;
        CampaignResult result = runCampaign(config);
        for (const CaseResult& r : result.corpusCases) {
            if (!r.minimized)
                continue;
            ++minimised;
            const CaseResult fresh = runCase(r.spec);
            const std::string line = formatCorpusLine(r);
            expectSameResult(fresh, r, line);
            const auto primary = std::find_if(
                result.cases.begin(), result.cases.end(),
                [&](const CaseResult& c) { return c.spec.seed == r.spec.seed; });
            ASSERT_NE(primary, result.cases.end()) << line;
            if (r.spec.injectAtOverride == primary->injectAt &&
                r.spec.wordOverride == primary->word) {
                ++pinned;
                expectSameResult(fresh, *primary, line);
            }
        }
    }
    EXPECT_GT(minimised, 0);
    EXPECT_GE(pinned, 6);
}

}  // namespace
}  // namespace gecko::fault
