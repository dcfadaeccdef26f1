#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "campaign/archive.hpp"
#include "defense/controller.hpp"

/**
 * Unit tests of the adaptive defense controller (DESIGN.md §11): the
 * anomaly-scoring escalation ladder, the hysteretic de-escalation, the
 * forward-progress ratchet, the escalated save backoff, and the
 * kDegraded recharge-dwell wake gate.  The controller is pure state, so
 * every test drives it directly with synthetic observations.
 */

namespace gecko::defense {
namespace {

DefenseConfig
fastConfig()
{
    DefenseConfig config;
    config.enabled = true;
    config.calmSamples = 4;
    config.decayPerSample = 0.2;
    return config;
}

/** Feed one physics-violating sample (a step far beyond the RC bound). */
void
violate(DefenseController& dc, double& t, double& v)
{
    analog::MonitorEvent ev;
    t += 1e-5;
    v = (v > 2.0) ? 0.5 : 3.3;  // volt-scale jump every call
    dc.observeSample(t, v, v, ev, ev);
}

/** Feed one calm sample (no motion, agreeing views). */
void
calm(DefenseController& dc, double& t, double v)
{
    analog::MonitorEvent ev;
    t += 1e-5;
    dc.observeSample(t, v, v, ev, ev);
}

TEST(DefenseTest, ModeNamesAreStable)
{
    EXPECT_STREQ(modeName(Mode::kNominal), "nominal");
    EXPECT_STREQ(modeName(Mode::kSuspicious), "suspicious");
    EXPECT_STREQ(modeName(Mode::kUnderAttack), "under_attack");
    EXPECT_STREQ(modeName(Mode::kDegraded), "degraded");
}

TEST(DefenseTest, CleanSamplesNeverEscalate)
{
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent ev;
    // A legitimate discharge ramp: small steps well inside the physics
    // bound, both monitor views agreeing.
    double v = 3.0;
    for (int i = 0; i < 1000; ++i) {
        dc.observeSample(t, v, v, ev, ev);
        t += 1e-5;
        v -= 1e-5;
    }
    EXPECT_EQ(dc.mode(), Mode::kNominal);
    EXPECT_EQ(dc.stats().escalations, 0u);
    EXPECT_EQ(dc.stats().anomalies, 0u);
    EXPECT_TRUE(dc.jitAllowed());
}

TEST(DefenseTest, PhysicsViolationsEscalateThroughLadder)
{
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0, v = 3.0;
    calm(dc, t, v);  // baseline sample
    violate(dc, t, v);
    EXPECT_EQ(dc.mode(), Mode::kSuspicious);  // one hit crosses 1.0
    EXPECT_TRUE(dc.jitAllowed());             // guarded JIT still on
    while (dc.mode() != Mode::kUnderAttack)
        violate(dc, t, v);
    EXPECT_FALSE(dc.jitAllowed());
    EXPECT_GE(dc.stats().physicsViolations, 2u);
    EXPECT_EQ(dc.stats().anomalies, 1u);  // edge-latched, traced once
    EXPECT_GE(dc.stats().firstEscalationT, 0.0);
}

TEST(DefenseTest, MonitorDisagreementIsEvidence)
{
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent primary, shadow;
    primary.backup = true;  // shadow channel saw no backup edge
    for (int i = 0; i < 10; ++i) {
        dc.observeSample(t, 3.0, 3.0, primary, shadow);
        t += 1e-5;
    }
    EXPECT_GE(dc.stats().disagreements, 10u);
    EXPECT_GE(dc.mode(), Mode::kSuspicious);
}

TEST(DefenseTest, SkewedEdgePairReconcilesAsBenign)
{
    // A genuine supply crossing (e.g. the wake ramp after a harvester
    // outage): the primary monitor trips the edge one sample before the
    // shadow does.  That pair must reconcile as sampling skew, not
    // score as forgery — this was a strict-preset false positive.
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent none, primaryWake, shadowWake;
    primaryWake.wake = true;
    shadowWake.wake = true;
    for (int edge = 0; edge < 8; ++edge) {
        dc.observeSample(t += 1e-5, 3.0, 3.0, primaryWake, none);
        dc.observeSample(t += 1e-5, 3.0, 3.0, none, shadowWake);
        for (int i = 0; i < 20; ++i)
            dc.observeSample(t += 1e-5, 3.0, 3.0, none, none);
    }
    EXPECT_EQ(dc.stats().edgeSkews, 8u);
    EXPECT_EQ(dc.stats().disagreements, 16u);  // raw mismatches counted
    EXPECT_EQ(dc.stats().escalations, 0u);
    EXPECT_EQ(dc.stats().anomalies, 0u);
    EXPECT_EQ(dc.mode(), Mode::kNominal);
}

TEST(DefenseTest, UnmatchedEdgePulseMaturesIntoEvidence)
{
    // A forged trough couples into only one sensing path: the pulse is
    // never confirmed, so it must still charge the disagreement weight
    // once the one-sample skew grace closes — a one-sample detection
    // latency, never a free pass.
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent none, forged;
    forged.backup = true;  // only the shadow comparator sees the trough
    dc.observeSample(t += 1e-5, 3.0, 3.0, none, forged);
    EXPECT_EQ(dc.score(), 0.0);  // held pending, not yet evidence
    dc.observeSample(t += 1e-5, 3.0, 3.0, none, none);
    EXPECT_EQ(dc.score(), 0.0);  // still inside the skew grace
    dc.observeSample(t += 1e-5, 3.0, 3.0, none, none);
    EXPECT_GT(dc.score(), 0.0);  // grace closed: charged in full
    EXPECT_EQ(dc.stats().edgeSkews, 0u);
    EXPECT_EQ(dc.stats().disagreements, 1u);

    // Sustained forgery (a pulse every sample) charges every sample
    // after the first: the ladder still escalates.
    for (int i = 0; i < 20; ++i)
        dc.observeSample(t += 1e-5, 3.0, 3.0, none, forged);
    EXPECT_GE(dc.mode(), Mode::kSuspicious);
    EXPECT_EQ(dc.stats().edgeSkews, 0u);
}

TEST(DefenseTest, HysteresisStepsDownOneLevelPerCalmDwell)
{
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;
    calm(dc, t, v);
    while (dc.mode() != Mode::kUnderAttack)
        violate(dc, t, v);

    // Decay to below kScoreClear, then count the calm dwell per level.
    int toSuspicious = 0;
    while (dc.mode() == Mode::kUnderAttack) {
        calm(dc, t, v);
        ++toSuspicious;
    }
    EXPECT_EQ(dc.mode(), Mode::kSuspicious);
    EXPECT_GE(toSuspicious, config.calmSamples);
    // The next level needs a *fresh* dwell — strictly more samples.
    int toNominal = 0;
    while (dc.mode() == Mode::kSuspicious) {
        calm(dc, t, v);
        ++toNominal;
    }
    EXPECT_EQ(dc.mode(), Mode::kNominal);
    EXPECT_EQ(toNominal, config.calmSamples);
    EXPECT_EQ(dc.stats().deEscalations, 2u);
}

TEST(DefenseTest, RatchetTripsOnStuckRegion)
{
    DefenseController dc(fastConfig(), PlantModel{});
    // Budget is 4 consecutive rollbacks of one region; the 5th trips.
    for (int i = 0; i < 4; ++i)
        dc.noteRollback(0.1 * i, 7);
    EXPECT_EQ(dc.stats().ratchetTrips, 0u);
    EXPECT_NE(dc.mode(), Mode::kDegraded);
    dc.noteRollback(0.5, 7);
    EXPECT_EQ(dc.stats().ratchetTrips, 1u);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_FALSE(dc.jitAllowed());
}

TEST(DefenseTest, RedoCommitDoesNotReArmRatchet)
{
    // The livelock signature: every power cycle re-commits the
    // rolled-back region once, then dies again.  The commit counter
    // moves but the frontier does not — the budget must still trip.
    DefenseController dc(fastConfig(), PlantModel{});
    std::uint64_t commits = 0;
    for (int i = 0; i < 5; ++i) {
        dc.noteRollback(0.1 * i, 7);
        dc.noteCommit(++commits);  // the redo commit
    }
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_EQ(dc.stats().ratchetTrips, 1u);
}

TEST(DefenseTest, RealProgressReArmsRatchet)
{
    // Two or more commits per power cycle (the redo plus new work) is
    // forward progress: the budget re-arms and never trips.
    DefenseController dc(fastConfig(), PlantModel{});
    std::uint64_t commits = 0;
    for (int i = 0; i < 50; ++i) {
        dc.noteRollback(0.1 * i, 7);
        commits += 2;
        dc.noteCommit(commits);
    }
    EXPECT_EQ(dc.stats().ratchetTrips, 0u);
    EXPECT_NE(dc.mode(), Mode::kDegraded);
}

TEST(DefenseTest, EnergyDebtLedgerTripsAndCommitsPayBack)
{
    DefenseConfig config = fastConfig();
    config.energyDebtBudgetJ = 1e-3;
    PlantModel plant;
    plant.bootEnergyJ = 1e-4;  // commit credit quantum
    DefenseController dc(config, plant);

    // Nine boots' worth of waste with one commit in between: the commit
    // pays exactly one quantum back, so the tenth pushes past budget.
    for (int i = 0; i < 9; ++i)
        dc.noteEnergyCost(0.01 * i, 1e-4);
    dc.noteCommit(1);
    EXPECT_NEAR(dc.stats().energyDebtJ, 8e-4, 1e-12);
    EXPECT_EQ(dc.stats().ratchetTrips, 0u);
    dc.noteEnergyCost(0.2, 1.5e-4);
    dc.noteEnergyCost(0.3, 1.5e-4);
    EXPECT_EQ(dc.stats().ratchetTrips, 1u);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_GT(dc.stats().peakEnergyDebtJ, 1e-3);
}

TEST(DefenseTest, RetriesExhaustedDegradesDirectly)
{
    DefenseController dc(fastConfig(), PlantModel{});
    dc.noteRetriesExhausted(1.0);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_FALSE(dc.jitAllowed());
}

TEST(DefenseTest, DegradedExitRequiresProvenProgress)
{
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;
    dc.noteRetriesExhausted(t);
    ASSERT_EQ(dc.mode(), Mode::kDegraded);

    // Calm alone is not enough: without a commit since entering
    // kDegraded the controller refuses to step down.
    for (int i = 0; i < 20 * config.calmSamples; ++i)
        calm(dc, t, v);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);

    dc.noteCommit(1);
    while (dc.mode() != Mode::kNominal)
        calm(dc, t, v);
    EXPECT_EQ(dc.stats().deEscalations, 3u);
    EXPECT_TRUE(dc.jitAllowed());
}

TEST(DefenseTest, CommitsFoldOnlyWithEmptyLedgerAndNoDegradedWait)
{
    // A burst may fold its running samples' noteCommit calls into one
    // only when no commit's effect depends on where it lands: the debt
    // ledger is empty, and kDegraded is not waiting on the first commit
    // that lets it step down.
    PlantModel plant;
    plant.bootEnergyJ = 1e-4;  // commit credit quantum
    DefenseController dc(fastConfig(), plant);
    EXPECT_TRUE(dc.commitsFold());

    dc.noteRetriesExhausted(1.0);
    ASSERT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_EQ(dc.stats().energyDebtJ, 0.0);
    EXPECT_FALSE(dc.commitsFold());
    dc.noteCommit(1);
    EXPECT_TRUE(dc.commitsFold());

    dc.noteEnergyCost(2.0, 1e-5);
    EXPECT_FALSE(dc.commitsFold());
    dc.noteCommit(2);  // one credit quantum clears the ledger
    EXPECT_EQ(dc.stats().energyDebtJ, 0.0);
    EXPECT_TRUE(dc.commitsFold());
}

TEST(DefenseTest, BackoffLinearNominalExponentialEscalated)
{
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    // Nominal preserves the legacy linear policy.
    EXPECT_EQ(dc.backoffCycles(0), 256);
    EXPECT_EQ(dc.backoffCycles(1), 512);
    EXPECT_EQ(dc.backoffCycles(2), 768);

    double t = 0.0, v = 3.0;
    calm(dc, t, v);
    violate(dc, t, v);
    ASSERT_EQ(dc.mode(), Mode::kSuspicious);
    // Escalated: exponential with a cap, immune to shift overflow.
    EXPECT_EQ(dc.backoffCycles(0), 256);
    EXPECT_EQ(dc.backoffCycles(1), 512);
    EXPECT_EQ(dc.backoffCycles(2), 1024);
    EXPECT_EQ(dc.backoffCycles(5), 8192);
    EXPECT_EQ(dc.backoffCycles(63), 8192);
}

TEST(DefenseTest, WakeDwellGatesOnlyDegraded)
{
    DefenseController dc(fastConfig(), PlantModel{});
    // Outside kDegraded the dwell never arms.
    dc.noteSleepEnter(0.0, 0.5);
    EXPECT_TRUE(dc.wakeAllowed(0.1));
    EXPECT_EQ(dc.stats().wakesDeferred, 0u);

    dc.noteRetriesExhausted(0.2);
    ASSERT_EQ(dc.mode(), Mode::kDegraded);
    dc.noteSleepEnter(1.0, 0.5);  // recharge estimate: ready at 1.5
    EXPECT_FALSE(dc.wakeAllowed(1.1));
    EXPECT_FALSE(dc.wakeAllowed(1.49));
    EXPECT_TRUE(dc.wakeAllowed(1.5));
    EXPECT_TRUE(dc.wakeAllowed(2.0));
    EXPECT_EQ(dc.stats().wakesDeferred, 2u);

    // An unreachable threshold (negative estimate) must not deadlock
    // the node: the gate stays open.
    dc.noteSleepEnter(3.0, -1.0);
    EXPECT_TRUE(dc.wakeAllowed(3.0));
}

TEST(DefenseTest, RelapseDoublesCalmDwell)
{
    // The adversarial-search signature: a duty-cycled tone that goes
    // quiet for exactly one calm dwell, lets the controller de-escalate
    // to nominal, then re-attacks.  Each such relapse must double the
    // dwell so the attacker's required off-time grows geometrically.
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;

    auto escalate = [&] {
        while (dc.mode() == Mode::kNominal)
            violate(dc, t, v);
    };
    auto calmToNominal = [&] {
        int n = 0;
        while (dc.mode() != Mode::kNominal) {
            calm(dc, t, v);
            ++n;
        }
        return n;
    };

    escalate();
    const int firstDwell = calmToNominal();
    escalate();  // relapse #1: within the window of the de-escalation
    EXPECT_EQ(dc.stats().relapses, 1u);
    const int secondDwell = calmToNominal();
    // The doubled dwell dominates the decay samples, so the relapse
    // path takes measurably longer to calm down.
    EXPECT_GE(secondDwell, firstDwell + config.calmSamples);
    escalate();  // relapse #2 doubles again
    EXPECT_EQ(dc.stats().relapses, 2u);
    const int thirdDwell = calmToNominal();
    EXPECT_GE(thirdDwell, secondDwell + 2 * config.calmSamples);
}

TEST(DefenseTest, RelapseLevelIsCappedAndForgiven)
{
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;

    // Six rounds: five relapses, one past the kRelapseLevelCap (4)
    // doublings.
    std::vector<int> dwells;
    for (int round = 0; round < 6; ++round) {
        while (dc.mode() == Mode::kNominal)
            violate(dc, t, v);
        int dwell = 0;
        for (; dc.mode() != Mode::kNominal; ++dwell)
            calm(dc, t, v);
        dwells.push_back(dwell);
    }
    EXPECT_EQ(dc.stats().relapses, 5u);
    // Each relapse up to the cap doubles the dwell; past it the dwell
    // stops growing.
    EXPECT_GE(dwells[4], dwells[3] + 8 * config.calmSamples);
    EXPECT_EQ(dwells[5], dwells[4]);

    // A long clean stretch forgives the penalty one level per dwell and
    // outlasts the relapse window, so a fresh incident calms down at
    // the undoubled dwell again.
    for (int i = 0; i < 64 * 64; ++i)
        calm(dc, t, v);
    while (dc.mode() == Mode::kNominal)
        violate(dc, t, v);
    int dwell = 0;
    for (; dc.mode() != Mode::kNominal; ++dwell)
        calm(dc, t, v);
    EXPECT_EQ(dc.stats().relapses, 5u);
    EXPECT_EQ(dwell, dwells[0]);
}

TEST(DefenseTest, RedoCreditGateTripsLedgerOnRedoOnlyCycles)
{
    // Each power cycle: one boot's waste, one rollback, one redo
    // commit, NO new progress.  Pre-hardening every redo earned a
    // boot-quantum credit, so debt stayed at zero forever; with the
    // gate the ledger integrates one quantum per cycle and trips.
    DefenseConfig config = fastConfig();
    config.energyDebtBudgetJ = 1e-3;
    config.rollbackBudgetPerRegion = 1000;  // isolate the ledger path
    PlantModel plant;
    plant.bootEnergyJ = 1e-4;
    DefenseController dc(config, plant);
    std::uint64_t commits = 0;
    for (int i = 0; i < 10; ++i) {
        dc.noteEnergyCost(0.01 * i, 1e-4);
        dc.noteRollback(0.01 * i + 1e-3, 3);
        dc.noteCommit(++commits);
    }
    EXPECT_GE(dc.stats().ratchetTrips, 1u);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);

    // Control: the same cycles with genuine progress (two commits per
    // cycle) pay the debt down and never trip.
    DefenseController ok(config, plant);
    commits = 0;
    for (int i = 0; i < 10; ++i) {
        ok.noteEnergyCost(0.01 * i, 1e-4);
        ok.noteRollback(0.01 * i + 1e-3, 3);
        commits += 2;
        ok.noteCommit(commits);
    }
    EXPECT_EQ(ok.stats().ratchetTrips, 0u);
}

// ---------------------------------------------------------------------
// The storm fixed point (DESIGN.md §14): a comparator primary tripping
// backup and wake on every sample under a volt-scale tone, an ADC
// shadow reading the quiet rail.  Every sample is a physics violation
// plus two matured disagreement charges, which pins the score — the
// state the simulator's bursts fast-forward.  steadyUnder decides a run
// by one observeSample on a copy, so every fixed point observeSample
// has certifies.
// ---------------------------------------------------------------------

constexpr double kStormDt = 0.5e-6;  // comparator check interval
constexpr double kStormAmp = 8.0;    // induced tone (V)
const analog::MonitorEvent kTrip{true, true};
const analog::MonitorEvent kQuiet{};

/** One storm sample of rail `v` at the next sample instant. */
void
stormSample(DefenseController& dc, double& t, double v)
{
    t += kStormDt;
    dc.observeSample(t, v - kStormAmp, v + kStormAmp, kTrip, kQuiet);
}

/** Drive a controller into the storm fixed point. */
void
saturate(DefenseController& dc, double& t)
{
    for (int i = 0; i < 64; ++i)
        stormSample(dc, t, 2.6);
}

std::vector<std::uint8_t>
archived(DefenseController& dc)
{
    campaign::Archive ar = campaign::Archive::saver();
    dc.archiveState(ar);
    return ar.takePayload();
}

/** The storm run the simulator would propose after time `t`. */
DefenseController::SteadyRun
stormRun(double t, bool sleeping = false)
{
    DefenseController::SteadyRun run;
    run.tFirst = t + kStormDt;
    run.gapMax = kStormDt + 4.0 * DBL_EPSILON * (kStormDt + t + 1.0);
    run.spanMin = 2.0 * kStormAmp - 1e-9;
    run.primary = kTrip;
    run.shadow = kQuiet;
    run.sleeping = sleeping;
    return run;
}

DefenseConfig
adaptiveConfig()
{
    DefenseConfig config;
    EXPECT_TRUE(presetByName("adaptive", &config));
    return config;
}

/** A dwell of one sample and a decay that takes every storm sample
 *  below kScoreClear: the calm path runs on every sample. */
DefenseConfig
flappingConfig()
{
    DefenseConfig config = adaptiveConfig();
    config.decayPerSample = 0.9;
    config.calmSamples = 1;
    config.scoreAttack = 2.0;
    return config;
}

TEST(DefenseSteadyTest, FastForwardEqualsObservedSamples)
{
    // The storm saturates the adaptive preset at kUnderAttack; with the
    // attack threshold out of reach, at kSuspicious; after retry
    // exhaustion and a commit it holds kDegraded.
    DefenseConfig suspicious = adaptiveConfig();
    suspicious.scoreAttack = 100.0;
    struct Case {
        DefenseConfig config;
        bool degrade;
        Mode mode;
    };
    const Case cases[] = {{adaptiveConfig(), false, Mode::kUnderAttack},
                          {suspicious, false, Mode::kSuspicious},
                          {adaptiveConfig(), true, Mode::kDegraded}};
    for (const Case& c : cases) {
        for (bool sleeping : {false, true}) {
            const std::string label = std::string(modeName(c.mode)) +
                                      (sleeping ? " sleep" : " running");
            DefenseController stepped(c.config, PlantModel{});
            double t = 0.0;
            saturate(stepped, t);
            if (c.degrade) {
                stepped.noteRetriesExhausted(t);
                stepped.noteCommit(1);
            }
            ASSERT_EQ(stepped.mode(), c.mode) << label;
            ASSERT_EQ(stepped.score(), kScoreMax) << label;
            DefenseController skipped = stepped;
            const DefenseController::SteadyRun run = stormRun(t, sleeping);
            const std::optional<DefenseStats> perSample =
                skipped.steadyUnder(run);
            ASSERT_TRUE(perSample) << label;
            EXPECT_EQ(perSample->samples, 1u) << label;
            EXPECT_EQ(perSample->physicsViolations, 1u) << label;
            EXPECT_EQ(perSample->disagreements, 1u) << label;
            // Per-sample path: the rail wanders inside its band.
            const int n = 1000;
            double v = 0.0;
            for (int i = 0; i < n; ++i) {
                v = 2.4 + 0.0005 * (i % 7);
                stormSample(stepped, t, v);
                if (sleeping) {
                    EXPECT_TRUE(stepped.wakeAllowed(t)) << label;
                }
            }
            skipped.fastForward(*perSample, n, t,
                                0.5 * ((v - kStormAmp) + (v + kStormAmp)));
            EXPECT_EQ(archived(skipped), archived(stepped)) << label;
            EXPECT_TRUE(skipped.steadyUnder(stormRun(t, sleeping))) << label;
        }
    }
}

TEST(DefenseSteadyTest, RefusesOffTheFixedPoint)
{
    double t = 0.0;
    // Not yet saturated: the score is still climbing.
    {
        DefenseController dc(adaptiveConfig(), PlantModel{});
        for (int i = 0; i < 3; ++i)
            stormSample(dc, t, 2.6);
        EXPECT_NE(dc.score(), kScoreMax);
        EXPECT_FALSE(dc.steadyUnder(stormRun(t)));
    }
    // At kScoreMax, but one decay + evidence step falls short of it:
    // 8 · 0.5 + 1.2 + 2 · 0.4 < 8.
    {
        DefenseConfig config = adaptiveConfig();
        config.decayPerSample = 0.5;
        DefenseController dc(config, PlantModel{});
        stormSample(dc, t, 2.6);
        stormSample(dc, t, 2.6);  // arms the edge windows
        for (int i = 0; i < 4; ++i)
            dc.noteBootEvidence(t, true, true);
        ASSERT_EQ(dc.score(), kScoreMax);
        ASSERT_GE(dc.mode(), Mode::kUnderAttack);
        EXPECT_FALSE(dc.steadyUnder(stormRun(t)));
    }
    // An agreeing pulse pair clears the edge windows (lead 0): the next
    // lone primary pulse re-arms instead of charging.
    {
        DefenseController dc(adaptiveConfig(), PlantModel{});
        saturate(dc, t);
        t += kStormDt;
        dc.observeSample(t, 2.6 - kStormAmp, 2.6 + kStormAmp, kTrip, kTrip);
        ASSERT_EQ(dc.score(), kScoreMax);
        EXPECT_FALSE(dc.steadyUnder(stormRun(t)));
        stormSample(dc, t, 2.6);  // re-armed: steady again
        EXPECT_TRUE(dc.steadyUnder(stormRun(t)));
    }
    // Envelope span within the physics bound: no violation to repeat.
    {
        DefenseController dc(adaptiveConfig(), PlantModel{});
        saturate(dc, t);
        DefenseController::SteadyRun run = stormRun(t);
        run.spanMin = 0.01;  // below kPhysicsMarginV alone
        EXPECT_FALSE(dc.steadyUnder(run));
        // A long real gap before the first sample lifts its bound
        // above 2A even though later gaps are one sample interval.
        run = stormRun(t);
        run.tFirst = t + 0.1;
        EXPECT_FALSE(dc.steadyUnder(run));
        // A first sample inside the bound says nothing of later ones a
        // millisecond apart (bound ≈ 0.72 V).
        run = stormRun(t);
        run.spanMin = 0.2;
        EXPECT_TRUE(dc.steadyUnder(run));
        run.gapMax = 1e-3;
        EXPECT_FALSE(dc.steadyUnder(run));
    }
}

TEST(DefenseSteadyTest, RefusesASampleThatStepsDownAndBackUp)
{
    // Each storm sample decays the score below kScoreClear, steps down
    // one level after the one-sample dwell, and its evidence escalates
    // straight back: mode, score and latches repeat, but the count since
    // the last de-escalation restarts every sample, so n samples are not
    // the fast-forward's n-sample advance.
    DefenseController dc(flappingConfig(), PlantModel{});
    double t = 0.0;
    saturate(dc, t);
    ASSERT_EQ(dc.mode(), Mode::kUnderAttack);
    const DefenseStats before = dc.stats();
    const double score = dc.score();
    stormSample(dc, t, 2.6);
    EXPECT_EQ(dc.mode(), Mode::kUnderAttack);
    EXPECT_EQ(dc.score(), score);
    EXPECT_EQ(dc.stats().deEscalations, before.deEscalations + 1);
    EXPECT_EQ(dc.stats().escalations, before.escalations + 1);
    EXPECT_FALSE(dc.steadyUnder(stormRun(t, false)));
    EXPECT_FALSE(dc.steadyUnder(stormRun(t, true)));
}

TEST(DefenseSteadyTest, RefusesNotificationsThatDoNotBatch)
{
    double t = 0.0;
    // A live recharge dwell counts every deferred sleep wake.
    {
        DefenseController dc(adaptiveConfig(), PlantModel{});
        saturate(dc, t);
        dc.noteRetriesExhausted(t);
        ASSERT_EQ(dc.mode(), Mode::kDegraded);
        dc.noteCommit(1);
        dc.noteSleepEnter(t, 1.0);
        EXPECT_FALSE(dc.steadyUnder(stormRun(t, true)));
        // Running samples never query the wake gate.
        EXPECT_TRUE(dc.steadyUnder(stormRun(t, false)));
        // Past the dwell the gate is side-effect free.
        stormSample(dc, t, 2.6);
        DefenseController::SteadyRun late = stormRun(t, true);
        late.tFirst = t + 1.0;
        late.gapMax = 1.0;
        late.spanMin = 1e9;  // keep the physics leg out of the way
        EXPECT_TRUE(dc.steadyUnder(late));
    }
    // An open debt ledger: one bulk noteCommit would round differently
    // from one call per quantum.
    {
        DefenseConfig config = adaptiveConfig();
        config.energyDebtBudgetJ = 10.0;
        PlantModel plant;
        plant.bootEnergyJ = 0.1;  // the commit credit
        DefenseController dc(config, plant);
        saturate(dc, t);
        dc.noteEnergyCost(t, 0.7);
        EXPECT_FALSE(dc.steadyUnder(stormRun(t, false)));
        EXPECT_TRUE(dc.steadyUnder(stormRun(t, true)));

        DefenseController perQuantum(config, plant);
        DefenseController bulk(config, plant);
        perQuantum.noteEnergyCost(0.0, 0.7);
        bulk.noteEnergyCost(0.0, 0.7);
        perQuantum.noteCommit(1);
        perQuantum.noteCommit(2);
        bulk.noteCommit(2);
        EXPECT_NE(perQuantum.stats().energyDebtJ, bulk.stats().energyDebtJ);
    }
    // A kDegraded calm dwell waiting on its first commit: a commit
    // inside a running run would let a later sample step down.
    {
        DefenseController dc(flappingConfig(), PlantModel{});
        saturate(dc, t);
        dc.noteRetriesExhausted(t);
        saturate(dc, t);
        ASSERT_EQ(dc.mode(), Mode::kDegraded);
        EXPECT_TRUE(dc.steadyUnder(stormRun(t, true)));
        EXPECT_FALSE(dc.steadyUnder(stormRun(t, false)));

        DefenseController committed = dc;
        committed.noteCommit(1);
        stormSample(committed, t, 2.6);
        EXPECT_EQ(committed.mode(), Mode::kUnderAttack);
        dc.noteCommit(1);
        EXPECT_FALSE(dc.steadyUnder(stormRun(t, false)));  // it steps down
    }
}

/** A uniform draw from [0, n). */
int
draw(std::mt19937_64& rng, int n)
{
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
}

/** The edge-skew window a pulse pair repeated on every sample keeps. */
int
steadyLead(bool primaryPulse, bool shadowPulse)
{
    return primaryPulse == shadowPulse ? 0 : primaryPulse ? 1 : -1;
}

/**
 * A controller restored from a random snapshot: archiveState's field
 * order with every field drawn, last sample at `t` and the commit count
 * at `commits`.  It reaches states no history under `config` does: a
 * score past a threshold the mode never climbed, a latch or calm run
 * out of step with the score, a relapse level past the dwell.  Half the
 * draws keep `score` (a history's fixed point) and most keep the edge
 * windows the pulses `primary`/`shadow` repeat, so the rest of the
 * draw is often the only thing off a fixed point.
 */
DefenseController
randomState(const DefenseConfig& config, std::mt19937_64& rng, double t,
            std::uint64_t commits, double score,
            const analog::MonitorEvent& primary,
            const analog::MonitorEvent& shadow)
{
    const double scores[] = {0.0, 0.3, 1.2, 2.4, 8.0, 0.01 * draw(rng, 800)};
    std::uint8_t mode = static_cast<std::uint8_t>(draw(rng, 4));
    if (draw(rng, 2) != 0)
        score = scores[draw(rng, 6)];
    bool latch = draw(rng, 2) != 0;
    int calmRun = draw(rng, 3);
    int relapseLevel = draw(rng, 5);
    std::uint64_t since = draw(rng, 2) != 0
                              ? ~std::uint64_t{0}
                              : static_cast<std::uint64_t>(draw(rng, 300));
    bool redo = draw(rng, 2) != 0;
    double lastT = t;
    double lastV = 2.4;
    int edges[4] = {steadyLead(primary.backup, shadow.backup), 0,
                    steadyLead(primary.wake, shadow.wake), 0};
    if (draw(rng, 4) == 0)
        edges[draw(rng, 4)] = draw(rng, 2);
    std::uint32_t region = static_cast<std::uint32_t>(draw(rng, 2));
    std::uint64_t rollbacks = static_cast<std::uint64_t>(draw(rng, 6));
    std::uint64_t atRollback = commits;
    bool committedSinceDegrade = draw(rng, 2) != 0;
    double wakeNotBefore = draw(rng, 2) != 0 ? -1.0 : t + 1e-6 * draw(rng, 50);
    DefenseStats stats;
    stats.samples = static_cast<std::uint64_t>(draw(rng, 1000));
    stats.escalations = static_cast<std::uint64_t>(draw(rng, 5));
    stats.firstEscalationT = draw(rng, 2) != 0 ? -1.0 : 0.5 * t;
    stats.energyDebtJ = draw(rng, 2) != 0 ? 0.0 : 1e-5;
    stats.peakEnergyDebtJ = 2e-5;

    campaign::Archive out = campaign::Archive::saver();
    out.section("defense_controller");
    out.u8(mode);
    out.f64(score);
    out.boolean(latch);
    out.i32(calmRun);
    out.i32(relapseLevel);
    out.u64(since);
    out.boolean(redo);
    out.f64(lastT);
    out.f64(lastV);
    for (int& field : edges)
        out.i32(field);
    out.u32(region);
    out.u64(rollbacks);
    out.u64(commits);
    out.u64(atRollback);
    out.boolean(committedSinceDegrade);
    out.f64(wakeNotBefore);
    out.counters(stats);
    DefenseController dc(config, PlantModel{});
    campaign::Archive in = campaign::Archive::loader(out.takePayload());
    dc.archiveState(in);
    return dc;
}

/**
 * Fixed-point differential over random controller histories: storms
 * and single samples with lone or paired pulses on either edge from
 * either monitor, with or without physics evidence; boot evidence,
 * rollbacks with their energy cost, commits, sleep entries, retry
 * exhaustion and restores of random snapshots.  After every event a
 * random run is proposed; whenever steadyUnder certifies one,
 * fastForward(n) must archive-equal n observeSample calls — with the
 * wake-gate query of each primary wake of a sleeping run, and a running
 * run's commits interleaved where the fast-forward takes them in one
 * noteCommit after the run.
 */
TEST(DefenseSteadyTest, RandomHistoriesFastForwardExactly)
{
    DefenseConfig suspicious = adaptiveConfig();
    suspicious.scoreAttack = 100.0;
    // Never escalates on evidence, and steps its relapse level down on
    // every calm sample.
    DefenseConfig numb = flappingConfig();
    numb.calmSamples = 0;
    numb.scoreSuspicious = 100.0;
    numb.scoreAttack = 100.0;
    const DefenseConfig configs[] = {adaptiveConfig(), suspicious,
                                     fastConfig(), flappingConfig(), numb};
    int certified[4] = {};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::mt19937_64 rng(seed);
        const auto coin = [&rng](int n) { return draw(rng, n); };
        const auto randomEvent = [&coin] {
            analog::MonitorEvent ev;
            ev.backup = coin(2) != 0;
            ev.wake = coin(2) != 0;
            return ev;
        };
        const DefenseConfig& config = configs[seed % 5];
        DefenseController dc(config, PlantModel{});
        double t = 0.0;
        double v = 2.5;
        std::uint64_t commits = 0;
        analog::MonitorEvent stormPrimary = kTrip;
        analog::MonitorEvent stormShadow = kQuiet;
        for (int step = 0; step < 1500; ++step) {
            switch (coin(10)) {
              case 0:
              case 1:
              case 2: {
                // A storm: one sample repeated.
                stormPrimary = randomEvent();
                stormShadow = randomEvent();
                const double amp = coin(4) != 0 ? kStormAmp : 0.0;
                for (int k = 1 + coin(40); k > 0; --k) {
                    t += kStormDt;
                    dc.observeSample(t, v - amp, v + amp, stormPrimary,
                                     stormShadow);
                }
                if (coin(4) == 0)
                    dc = randomState(config, rng, t, commits, dc.score(),
                                     stormPrimary, stormShadow);
                break;
              }
              case 3:
                // One point sample, quiet or a volt-scale jump.
                t += kStormDt;
                if (coin(2) != 0)
                    v = v > 2.0 ? 0.5 : 3.3;
                dc.observeSample(t, v, v, randomEvent(), randomEvent());
                break;
              case 4:
                dc.noteBootEvidence(t, coin(2) != 0, coin(2) != 0);
                break;
              case 5:
                dc.noteRollback(t, static_cast<std::uint32_t>(coin(2)));
                dc.noteEnergyCost(t, 1e-5 * coin(3));
                break;
              case 6:
                commits += static_cast<std::uint64_t>(coin(3));
                dc.noteCommit(commits);
                break;
              case 7:
                dc.noteSleepEnter(t, coin(3) == 0 ? -1.0 : 1e-5 * coin(200));
                break;
              case 8:
                if (coin(8) == 0)
                    dc.noteRetriesExhausted(t);
                break;
              default:
                t += 1e-4 * coin(3);  // an idle gap
                break;
            }

            DefenseController::SteadyRun run;
            run.tFirst = t + (coin(8) == 0 ? 0.1 : kStormDt);
            run.gapMax = coin(4) == 0 ? 1e-3 : kStormDt;
            run.spanMin = coin(6) == 0 ? 0.2 : 2.0 * kStormAmp;
            run.primary = coin(4) == 0 ? randomEvent() : stormPrimary;
            run.shadow = coin(4) == 0 ? randomEvent() : stormShadow;
            run.sleeping = coin(2) != 0;
            const std::optional<DefenseStats> perSample = dc.steadyUnder(run);
            if (!perSample)
                continue;
            ++certified[static_cast<int>(dc.mode())];

            DefenseController skipped = dc;
            const int n = 1 + coin(300);
            double tk = run.tFirst;
            double mid = 0.0;
            for (int i = 0; i < n; ++i) {
                if (i > 0)
                    tk += run.gapMax * (0.5 + 0.01 * coin(50));
                const double vk = 2.4 + 1e-4 * coin(5);
                const double half = 0.5 * run.spanMin + 1e-3 * (1 + coin(3));
                dc.observeSample(tk, vk - half, vk + half, run.primary,
                                 run.shadow);
                mid = 0.5 * ((vk - half) + (vk + half));
                if (run.sleeping && run.primary.wake)
                    dc.wakeAllowed(tk);
                if (!run.sleeping && coin(4) == 0) {
                    commits += 1 + static_cast<std::uint64_t>(coin(2));
                    dc.noteCommit(commits);
                }
            }
            skipped.fastForward(*perSample, static_cast<std::uint64_t>(n),
                                tk, mid);
            if (!run.sleeping)
                skipped.noteCommit(commits);
            ASSERT_EQ(archived(skipped), archived(dc))
                << "seed " << seed << " step " << step << " n " << n;
            t = tk;
            v = 2.4;
        }
    }
    EXPECT_GT(certified[static_cast<int>(Mode::kSuspicious)], 0);
    EXPECT_GT(certified[static_cast<int>(Mode::kUnderAttack)], 0);
    EXPECT_GT(certified[static_cast<int>(Mode::kDegraded)], 0);
}

TEST(DefenseTest, RestoreRefusesCountersOutOfRange)
{
    DefenseController saved(fastConfig(), PlantModel{});
    double t = 0.0, v = 3.0;
    while (saved.mode() == Mode::kNominal)
        violate(saved, t, v);
    const std::vector<std::uint8_t> payload = archived(saved);
    // Restore into a fresh controller and archive it again.
    const auto restore = [](const std::vector<std::uint8_t>& bytes) {
        DefenseController dc(fastConfig(), PlantModel{});
        campaign::Archive in = campaign::Archive::loader(bytes);
        dc.archiveState(in);
        in.finishLoad();
        return archived(dc);
    };
    ASSERT_EQ(restore(payload), payload);

    // Payload offsets of the patched i32 fields, after the section tag
    // (4 bytes), mode (1), score (8), the suspicion latch (1),
    // sinceDeescalation (8), the redo latch (1) and the last sample's
    // time and voltage (8 + 8).  SnapshotLayoutTest pins this layout.
    constexpr std::size_t kCalmRun = 14, kRelapseLevel = 18,
                          kBackupLead = 47, kBackupAge = 51, kWakeLead = 55,
                          kWakeAge = 59;
    const auto patched = [&](std::size_t offset, std::int32_t value) {
        std::vector<std::uint8_t> bytes = payload;
        const auto u = static_cast<std::uint32_t>(value);
        for (int i = 0; i < 4; ++i)
            bytes[offset + i] = static_cast<std::uint8_t>(u >> (8 * i));
        return bytes;
    };
    struct Field {
        std::size_t offset;
        int lo, hi;
        const char* what;
    };
    const Field fields[] = {
        {kRelapseLevel, 0, kRelapseLevelCap, "relapse level"},
        {kCalmRun, 0, 1 << 20, "calm run"},
        {kBackupLead, -1, 1, "edge window"},
        {kBackupAge, 0, kEdgeSkewSamples, "edge window"},
        {kWakeLead, -1, 1, "edge window"},
        {kWakeAge, 0, kEdgeSkewSamples, "edge window"},
    };
    for (const Field& f : fields) {
        for (int value : {f.lo, f.hi}) {
            const std::vector<std::uint8_t> bytes = patched(f.offset, value);
            EXPECT_EQ(restore(bytes), bytes) << f.what << " " << value;
        }
        for (int value : {f.lo - 1, f.hi + 1}) {
            try {
                restore(patched(f.offset, value));
                ADD_FAILURE() << f.what << " " << value << " restored";
            } catch (const campaign::SnapshotError& e) {
                EXPECT_NE(std::string(e.what()).find(f.what),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

}  // namespace
}  // namespace gecko::defense
