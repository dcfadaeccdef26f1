#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "adversary/knobs.hpp"
#include "adversary/optimizer.hpp"
#include "campaign/engine.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"
#include "fault/spec.hpp"
#include "metrics/json.hpp"
#include "test_util.hpp"

/**
 * @file
 * The adversarial attack optimizer (DESIGN.md §16): knob-space
 * mechanics, the integer denial objective, and the end-to-end search
 * contracts — same seed emits the byte-identical best-attack spec, the
 * journaled winner replays to exactly its journaled score, the
 * serialized best spec replays through the engine to the best arm's
 * counters, and the clean baseline never escalates the hardened
 * controller (zero false positives) even under the strict preset.
 */

namespace gecko {
namespace {

namespace fs = std::filesystem;

using test::TempDir;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Tiny but real search budget: one coordinate round, one restart. */
adversary::SearchConfig
tinyConfig(const std::string& dir, const std::string& defense)
{
    adversary::SearchConfig config;
    config.dir = dir;
    config.defense = defense;
    config.rounds = 1;
    config.restarts = 1;
    config.seedsPerCandidate = 1;
    config.seed = 11;
    config.simSeconds = 0.01;
    config.sliceSimSeconds = 0.0025;
    return config;
}

// ---------------------------------------------------------------------
// Knob space
// ---------------------------------------------------------------------

TEST(AdversaryKnobs, JsonRoundTripsEveryField)
{
    adversary::AttackKnobs k;
    k.freqHz = 13.625e6;
    k.powerDbm = 31.5;
    k.dutyPeriodS = 0.0075;
    k.dutyOnFrac = 0.375;
    k.phaseS = 0.0031;
    k.envelopeStepDbm = 4.25;
    k.gridCell = 53;

    adversary::AttackKnobs back;
    metrics::JsonValue json;
    ASSERT_TRUE(metrics::parseJson(adversary::knobsJson(k), &json));
    ASSERT_TRUE(adversary::knobsFromJson(json, &back));
    EXPECT_EQ(adversary::knobsJson(back), adversary::knobsJson(k));
    EXPECT_DOUBLE_EQ(back.freqHz, k.freqHz);
    EXPECT_DOUBLE_EQ(back.dutyOnFrac, k.dutyOnFrac);
    EXPECT_EQ(back.gridCell, k.gridCell);

    adversary::AttackKnobs junk;
    EXPECT_FALSE(metrics::parseJson("{\"freq_hz\":}", &json));
    EXPECT_FALSE(adversary::knobsFromJson(json, &junk));
    ASSERT_TRUE(metrics::parseJson("{\"freq_hz\":1}", &json));
    EXPECT_FALSE(adversary::knobsFromJson(json, &junk));
}

TEST(AdversaryKnobs, PerturbStaysInBoundsOnEveryCoordinate)
{
    exp::Rng rng(exp::mixSeed(3, 99));
    for (int trial = 0; trial < 200; ++trial) {
        adversary::AttackKnobs k = adversary::randomKnobs(rng);
        for (int coord = 0; coord < adversary::kKnobCount; ++coord) {
            for (int dir : {-1, +1}) {
                const adversary::AttackKnobs p =
                    adversary::perturb(k, coord, dir, 1.0);
                for (const adversary::Knob& knob : adversary::kKnobs) {
                    EXPECT_GE(p.*knob.member, knob.lo) << knob.key;
                    EXPECT_LE(p.*knob.member, knob.hi) << knob.key;
                }
                EXPECT_GE(p.gridCell, 0);
                EXPECT_LT(p.gridCell,
                          adversary::kGridRows * adversary::kGridCols);
            }
        }
    }
}

TEST(AdversaryKnobs, DenialScoreWeighsDeficitsAndWreckage)
{
    campaign::GroupTotals clean;
    clean.counters.exec.completions = 10;
    clean.commits = 100;
    campaign::GroupTotals attacked;
    attacked.counters.exec.completions = 7;
    attacked.commits = 60;
    attacked.counters.runtime.rollbacks = 2;
    attacked.counters.runtime.retriesExhausted = 1;
    attacked.counters.sim.hardDeaths = 1;
    // 1000*3 + 100*40 + 50*2 + 500*1 + 2000*1 = 9600.
    EXPECT_EQ(adversary::denialScore(clean, attacked), 9600u);
    // More progress than clean = no deficit contribution.
    attacked.counters = {};
    attacked.counters.exec.completions = 12;
    attacked.commits = 120;
    EXPECT_EQ(adversary::denialScore(clean, attacked), 0u);
}

TEST(AdversaryKnobs, SerializedSpecReachesTheEngineAsTheCandidateScenario)
{
    // best_spec.json must carry exactly the scenario the search scored:
    // toSpec -> serializeSpec -> parseSpec -> applyToEngine yields
    // toScenario() (unnamed) for knobs that engage every field.
    exp::Rng rng(exp::mixSeed(5, 17));
    for (int trial = 0; trial < 50; ++trial) {
        const adversary::AttackKnobs k = adversary::randomKnobs(rng);
        const fault::FaultSpec spec =
            adversary::toSpec(k, "t", 3, 2, 0.02, 0.005);
        fault::FaultSpec back;
        std::string error;
        ASSERT_TRUE(fault::parseSpec(fault::serializeSpec(spec), &back,
                                     &error))
            << error;
        campaign::EngineConfig ec;
        fault::applyToEngine(back, &ec);
        ASSERT_EQ(ec.space.scenarios.size(), 2u);
        EXPECT_TRUE(ec.space.scenarios[0] ==
                    campaign::cleanBaseline(adversary::kOutagePeriodS,
                                            adversary::kOutageOnFrac));
        EXPECT_TRUE(ec.space.scenarios[1] == adversary::toScenario(k, ""))
            << "trial " << trial << ": " << adversary::knobsJson(k);
    }
}

// ---------------------------------------------------------------------
// Search contracts
// ---------------------------------------------------------------------

TEST(AdversarySearch, SameSeedEmitsByteIdenticalBestSpec)
{
    TempDir a("det_a");
    TempDir b("det_b");
    adversary::SearchReport ra =
        adversary::runSearch(tinyConfig(a.str(), "static"),
                             exp::ThreadPool::global());
    adversary::SearchReport rb =
        adversary::runSearch(tinyConfig(b.str(), "static"),
                             exp::ThreadPool::global());
    ASSERT_TRUE(ra.complete);
    ASSERT_TRUE(rb.complete);
    EXPECT_EQ(ra.best.score, rb.best.score);
    EXPECT_EQ(adversary::knobsJson(ra.best.knobs),
              adversary::knobsJson(rb.best.knobs));
    const std::string specA = slurp(a.str() + "/best_spec.json");
    const std::string specB = slurp(b.str() + "/best_spec.json");
    ASSERT_FALSE(specA.empty());
    EXPECT_EQ(specA, specB);
    EXPECT_EQ(specA, ra.bestSpecJson);
}

TEST(AdversarySearch, RerunOnJournaledDirPinsTheSameWinner)
{
    TempDir dir("pin");
    const adversary::SearchConfig config = tinyConfig(dir.str(), "static");
    adversary::SearchReport first =
        adversary::runSearch(config, exp::ThreadPool::global());
    ASSERT_TRUE(first.complete);
    ASSERT_TRUE(first.replayMatches)
        << "journaled best must replay to its journaled score";
    EXPECT_GT(first.best.score, 0u)
        << "the undefended config must be attackable";
    const std::string spec1 = slurp(dir.str() + "/best_spec.json");

    // A second run over the same durable dir is a pure replay: every
    // round is journaled, the standalone best evaluation is already a
    // completed campaign, and the emitted spec must not change.
    adversary::SearchReport second =
        adversary::runSearch(config, exp::ThreadPool::global());
    ASSERT_TRUE(second.complete);
    EXPECT_TRUE(second.replayMatches);
    EXPECT_EQ(second.best.score, first.best.score);
    EXPECT_EQ(slurp(dir.str() + "/best_spec.json"), spec1);
}

TEST(AdversarySearch, TornFinalRoundLineIsIgnoredOnResume)
{
    // A crash mid-write of the last round record leaves a fragment that
    // ends inside a number.  The resume must drop it as torn and re-run
    // that round from its completed campaign, not read the cut number:
    // cut inside the winner's two-digit grid cell, the fragment would
    // name another cell.  A whole round line with a repeated key or a
    // quoted score is damage too, and re-runs its round the same way.
    auto config = [](const std::string& dir) {
        adversary::SearchConfig c = tinyConfig(dir, "adaptive");
        c.seed = 2;
        return c;
    };
    TempDir ref("torn_ref");
    const adversary::SearchReport expected =
        adversary::runSearch(config(ref.str()), exp::ThreadPool::global());
    ASSERT_TRUE(expected.complete);
    ASSERT_GE(expected.best.knobs.gridCell, 10)
        << "pick a seed whose winner sits in a two-digit cell";

    for (const std::string damage : {"cut", "duplicate key", "wrong type"}) {
        SCOPED_TRACE(damage);
        TempDir cut("torn_cut");
        ASSERT_TRUE(adversary::runSearch(config(cut.str()),
                                         exp::ThreadPool::global())
                        .complete);

        const std::string journal = cut.str() + "/search.jsonl";
        std::string text = slurp(journal);
        const std::size_t last = text.rfind("{\"type\":\"round\"");
        ASSERT_NE(last, std::string::npos);
        if (damage == "cut") {
            const std::string cellKey = "\"grid_cell\":";
            const std::size_t cell = text.find(cellKey, last);
            ASSERT_NE(cell, std::string::npos);
            text.resize(cell + cellKey.size() + 1);
        } else if (damage == "duplicate key") {
            text.insert(last + 1, "\"type\":\"round\",");
        } else {
            const std::string scoreKey = "\"best_score\":";
            const std::size_t score = text.find(scoreKey, last);
            ASSERT_NE(score, std::string::npos);
            const std::size_t value = score + scoreKey.size();
            text.insert(text.find(',', value), 1, '"');
            text.insert(value, 1, '"');
        }
        std::ofstream(journal, std::ios::binary | std::ios::trunc) << text;
        fs::remove(cut.str() + "/best_spec.json");

        const adversary::SearchReport resumed = adversary::runSearch(
            config(cut.str()), exp::ThreadPool::global());
        ASSERT_TRUE(resumed.complete);
        EXPECT_TRUE(resumed.replayMatches);
        EXPECT_EQ(resumed.best.score, expected.best.score);
        EXPECT_EQ(slurp(cut.str() + "/best_spec.json"),
                  slurp(ref.str() + "/best_spec.json"));
        // The damaged line stays one damaged line; the re-run round
        // landed whole after it.
        EXPECT_EQ(metrics::readJsonl(journal,
                                     [](const metrics::JsonValue& v) {
                                         return v.getString("type") !=
                                                    "round" ||
                                                v.getU64("best_score")
                                                    .has_value();
                                     }),
                  1u);
    }
}

TEST(AdversarySearch, RefusesASearchJournalHeldByAnotherWriter)
{
    // One search per directory: while another writer holds the journal
    // the search refuses to start, and the journal keeps its bytes.
    TempDir dir("held");
    const std::string journal = dir.str() + "/search.jsonl";
    std::ofstream(journal, std::ios::binary)
        << "{\"type\":\"cand\",\"round\":0}\n";
    const std::string before = slurp(journal);

    const int fd = ::open(journal.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);
    try {
        adversary::runSearch(tinyConfig(dir.str(), "static"),
                             exp::ThreadPool::global());
        ADD_FAILURE() << "runSearch ran against a held journal";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("held by another writer"),
                  std::string::npos)
            << e.what();
    }
    ::close(fd);
    EXPECT_EQ(slurp(journal), before);
}

TEST(AdversarySearch, BestSpecReplaysThroughTheEngineToTheBestTotals)
{
    // The replay contract end to end: best_spec.json, loaded the way
    // `campaign_runner --spec` loads it and completed with the search's
    // workload, scheme and defense, reproduces the attacked arm of the
    // standalone best evaluation counter for counter.
    TempDir dir("spec_replay");
    const adversary::SearchConfig config = tinyConfig(dir.str(), "adaptive");
    const adversary::SearchReport rep =
        adversary::runSearch(config, exp::ThreadPool::global());
    ASSERT_TRUE(rep.complete);
    ASSERT_TRUE(rep.replayMatches);

    fault::FaultSpec spec;
    std::string error;
    ASSERT_TRUE(fault::loadSpecFile(dir.str() + "/best_spec.json", &spec,
                                    &error))
        << error;
    campaign::EngineConfig ec;
    ec.dir = dir.str() + "/spec_replay";
    fs::create_directories(ec.dir);
    ec.space.workloads = {config.workload};
    ec.space.schemes = {adversary::kSearchScheme};
    ec.space.defenses = {config.defense};
    fault::applyToEngine(spec, &ec);
    ASSERT_EQ(ec.space.scenarios.size(), 2u);
    const campaign::EngineReport report =
        campaign::runCampaign(ec, exp::ThreadPool::global());
    ASSERT_TRUE(report.complete);
    ASSERT_EQ(report.jobsQuarantined, 0u);

    campaign::Aggregator agg(report.jobsTotal);
    metrics::readJsonl(ec.dir + "/results.jsonl",
                       [&agg](const metrics::JsonValue& v) {
                           if (auto r = campaign::JobResult::fromJson(v))
                               agg.add(*r);
                           return true;
                       });
    campaign::JobSpec attacked;
    attacked.workload = config.workload;
    attacked.scheme = adversary::kSearchScheme;
    attacked.scenario = ec.space.scenarios[1];
    attacked.defense = config.defense;
    const auto it = agg.groups().find(attacked.groupKey());
    ASSERT_NE(it, agg.groups().end()) << attacked.groupKey();
    EXPECT_TRUE(it->second == rep.bestTotals);
    EXPECT_EQ(it->second.commits, rep.bestTotals.commits);
    EXPECT_EQ(it->second.counters.exec.completions,
              rep.bestTotals.counters.exec.completions);
}

TEST(AdversarySearch, CleanBaselineNeverEscalatesStrictPreset)
{
    // Regression pin for the edge-skew fix: the clean arm carries the
    // harvester outage environment, whose restore ramps make the two
    // monitors flag the wake crossing one sample apart.  Under the
    // strict preset that skew used to score as forgery (4 escalations
    // per run); reconciliation must keep the clean arm at zero.
    TempDir dir("strict");
    adversary::SearchReport rep =
        adversary::runSearch(tinyConfig(dir.str(), "strict"),
                             exp::ThreadPool::global());
    ASSERT_TRUE(rep.complete);
    EXPECT_TRUE(rep.replayMatches);
    EXPECT_EQ(rep.cleanTotals.counters.defense.escalations, 0u)
        << "clean-run false positives under strict";
}

}  // namespace
}  // namespace gecko
