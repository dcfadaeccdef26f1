#include "defense/controller.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "campaign/archive.hpp"
#include "trace/trace.hpp"

namespace gecko::defense {

namespace {

/// Longest calm dwell: calmDwell's ceiling on the doubled calmSamples.
constexpr int kMaxCalmDwell = 1 << 20;

/** Score in integer milli-units for trace payloads (clamped at 0). */
[[maybe_unused]] std::uint64_t
traceScore(double s)
{
    return s > 0 ? static_cast<std::uint64_t>(std::llround(s * 1000.0)) : 0;
}

/** `since` advanced by `n` samples, saturating at "never". */
std::uint64_t
advanced(std::uint64_t since, std::uint64_t n)
{
    constexpr std::uint64_t kNever = ~std::uint64_t{0};
    return n >= kNever - since ? kNever : since + n;
}

/** Call `fn(&DefenseStats::field)` for each per-sample counter. */
template <class Fn>
void
forEachCount(Fn&& fn)
{
    DefenseStats::forEachField([&](const metrics::CounterField&, auto m) {
        if constexpr (std::is_integral_v<
                          std::remove_cvref_t<decltype(DefenseStats{}.*m)>>)
            fn(m);
    });
}

}  // namespace

bool
presetByName(const std::string& name, DefenseConfig* out)
{
    if (name == "static") {
        *out = DefenseConfig{};
        return true;
    }
    if (name == "adaptive") {
        DefenseConfig config;
        config.enabled = true;
        *out = config;
        return true;
    }
    if (name == "strict") {
        DefenseConfig config;
        config.enabled = true;
        config.scoreSuspicious = 0.7;
        config.scoreAttack = 1.8;
        config.calmSamples = 96;
        config.rollbackBudgetPerRegion = 2;
        config.backoffCapCycles = 16384;
        *out = config;
        return true;
    }
    return false;
}

const char*
modeName(Mode mode)
{
    switch (mode) {
      case Mode::kNominal:
        return "nominal";
      case Mode::kSuspicious:
        return "suspicious";
      case Mode::kUnderAttack:
        return "under_attack";
      case Mode::kDegraded:
        return "degraded";
    }
    return "unknown";
}

DefenseController::DefenseController(const DefenseConfig& config,
                                     const PlantModel& plant)
    : config_(config), plant_(plant)
{
    // Legitimate dV/dt is bounded by the plant: the CPU discharging the
    // buffer at worst-case active power, plus the harvester charging it
    // through the Thevenin source resistance.  EMI couples volts into
    // the *monitor*, not the rail, so a seen excursion beyond this bound
    // (plus margin) is physical evidence of a forged reading.
    const double c = std::max(plant.capacitanceF, 1e-12);
    const double dischargeSlew =
        plant.energyPerCycleJ * plant.clockHz / (c * std::max(plant.vOff, 0.1));
    const double chargeSlew =
        plant.maxV / (std::max(plant.sourceResistance, 1e-3) * c);
    maxSlewVps_ = dischargeSlew + chargeSlew;

    debtBudgetJ_ =
        config.energyDebtBudgetJ > 0
            ? config.energyDebtBudgetJ
            : 8.0 * 0.5 * c * (plant.vOn * plant.vOn -
                               plant.vOff * plant.vOff);
}

void
DefenseController::setMode(double t, Mode next)
{
    if (next == state_.mode)
        return;
    const Mode prev = state_.mode;
    state_.mode = next;
    if (next > prev) {
        ++state_.stats.escalations;
        if (state_.stats.firstEscalationT < 0)
            state_.stats.firstEscalationT = t;
        // Relapse: escalating again soon after we calmed down.  Each
        // one doubles the calm dwell (capped), so an attacker
        // duty-cycled to just outlast the hysteresis loses the race —
        // its off-time requirement grows geometrically while its
        // disruption stays fixed.
        if (prev == Mode::kNominal &&
            sinceDeescalation_ < kRelapseWindowSamples) {
            state_.relapseLevel =
                std::min(state_.relapseLevel + 1, kRelapseLevelCap);
            ++state_.stats.relapses;
        }
    } else {
        ++state_.stats.deEscalations;
        sinceDeescalation_ = 0;
    }
    if (next == Mode::kDegraded)
        state_.committedSinceDegrade = false;
    if (next < Mode::kDegraded)
        state_.wakeNotBefore = -1.0;
    state_.calmRun = 0;
    GECKO_TRACE_EVENT(trace::EventKind::kDefenseModeChange, 0,
                      static_cast<std::uint64_t>(next),
                      static_cast<std::uint64_t>(prev));
}

void
DefenseController::escalateTo(double t, Mode target)
{
    if (target > state_.mode)
        setMode(t, target);
}

void
DefenseController::tripRatchet(double t,
                               [[maybe_unused]] std::uint32_t regionId,
                               [[maybe_unused]] std::uint64_t count)
{
    ++state_.stats.ratchetTrips;
    GECKO_TRACE_EVENT(trace::EventKind::kDefenseRatchetTrip, 0,
                      static_cast<std::uint64_t>(regionId), count);
    escalateTo(t, Mode::kDegraded);
}

void
DefenseController::addEvidence(double t, double weight,
                               [[maybe_unused]] std::uint64_t evidence)
{
    state_.score = std::min(state_.score + weight, kScoreMax);
    state_.calmRun = 0;
    if (!state_.aboveSuspicion && state_.score >= config_.scoreSuspicious) {
        state_.aboveSuspicion = true;
        ++state_.stats.anomalies;
        GECKO_TRACE_EVENT(trace::EventKind::kDefenseAnomaly, 0,
                          traceScore(state_.score), evidence);
    }
    if (state_.score >= config_.scoreAttack)
        escalateTo(t, Mode::kUnderAttack);
    else if (state_.score >= config_.scoreSuspicious)
        escalateTo(t, Mode::kSuspicious);
}

int
DefenseController::trackEdge(PendingEdge& pending, bool primaryPulse,
                             bool shadowPulse)
{
    if (primaryPulse && shadowPulse) {
        // Simultaneous agreement; nothing pending can be forged skew.
        pending = PendingEdge{};
        return 0;
    }
    if (primaryPulse != shadowPulse) {
        const int lead = primaryPulse ? 1 : -1;
        if (pending.lead == -lead) {
            // The other monitor confirmed the earlier pulse: benign
            // sampling skew at a real crossing, not evidence.
            ++state_.stats.edgeSkews;
            pending = PendingEdge{};
            return 0;
        }
        // Same-side repeat (sustained forged trough): the previous
        // pulse is now unconfirmable — charge it and re-arm.
        const int matured = pending.lead == lead ? 1 : 0;
        pending.lead = lead;
        pending.age = 0;
        return matured;
    }
    // Quiet sample: age the window; an unmatched pulse matures into a
    // disagreement charge once the skew grace is exhausted.
    if (pending.lead != 0 && ++pending.age > kEdgeSkewSamples) {
        pending = PendingEdge{};
        return 1;
    }
    return 0;
}

int
DefenseController::calmDwell() const
{
    const int shift = std::min(state_.relapseLevel, kRelapseLevelCap);
    const long long dwell = static_cast<long long>(config_.calmSamples)
                            << shift;
    return static_cast<int>(std::min<long long>(dwell, kMaxCalmDwell));
}

void
DefenseController::decayAndMaybeDeescalate(double t)
{
    state_.score =
        std::max(0.0, state_.score * (1.0 - config_.decayPerSample));
    if (state_.score < kScoreClear)
        state_.aboveSuspicion = false;
    if (state_.score > kScoreClear) {
        state_.calmRun = 0;
        return;
    }
    if (state_.mode == Mode::kNominal) {
        // Sustained nominal calm forgives one relapse level per calm
        // dwell — a one-off incident doesn't tax the node forever.
        if (state_.relapseLevel > 0 && ++state_.calmRun >= calmDwell()) {
            --state_.relapseLevel;
            state_.calmRun = 0;
        }
        return;
    }
    if (++state_.calmRun < calmDwell())
        return;
    // One level per calm dwell — the hysteresis that keeps an attacker
    // from flapping the policy with a 50% duty-cycle tone.  Leaving
    // kDegraded additionally requires proven forward progress.
    if (state_.mode == Mode::kDegraded && !state_.committedSinceDegrade) {
        state_.calmRun = 0;
        return;
    }
    setMode(t, static_cast<Mode>(static_cast<std::uint8_t>(state_.mode) - 1));
}

void
DefenseController::observeSample(double t, double vLo, double vHi,
                                 const analog::MonitorEvent& primary,
                                 const analog::MonitorEvent& shadow)
{
    ++state_.stats.samples;
    sinceDeescalation_ = advanced(sinceDeescalation_, 1);
    std::uint64_t evidence = 0;

    if (lastSampleT_ >= 0.0 && t > lastSampleT_) {
        // Legitimate motion since the previous sample is bounded by the
        // RC physics; both the within-window envelope span and the
        // between-sample step must fit it.
        const double bound = physicsBound(t - lastSampleT_);
        const double mid = 0.5 * (vLo + vHi);
        if ((vHi - vLo) > bound || std::abs(mid - lastSampleV_) > bound) {
            evidence |= kEvidencePhysics;
            ++state_.stats.physicsViolations;
        }
    }
    if (primary.backup != shadow.backup || primary.wake != shadow.wake) {
        evidence |= kEvidenceDisagree;
        ++state_.stats.disagreements;
    }

    decayAndMaybeDeescalate(t);
    if (evidence & kEvidencePhysics)
        addEvidence(t, kPhysicsWeight, evidence);
    // Edge-skew reconciliation: a lone pulse waits for the other
    // monitor's matching pulse before it becomes evidence, so the
    // one-sample trip skew at a genuine supply crossing (ADC
    // quantization vs comparator hysteresis) stops scoring as forgery.
    // Unmatched pulses still mature into the full disagreement weight
    // when the window closes.
    const int charges =
        trackEdge(state_.pendingBackup, primary.backup, shadow.backup) +
        trackEdge(state_.pendingWake, primary.wake, shadow.wake);
    for (int i = 0; i < charges; ++i)
        addEvidence(t, kDisagreeWeight, evidence | kEvidenceDisagree);

    lastSampleT_ = t;
    lastSampleV_ = 0.5 * (vLo + vHi);
}

void
DefenseController::noteBootEvidence(double t, bool ackDetect,
                                    bool timerDetect)
{
    if (!ackDetect && !timerDetect)
        return;
    const double w = kBootEvidenceWeight *
                     ((ackDetect ? 1 : 0) + (timerDetect ? 1 : 0));
    addEvidence(t, w, kEvidenceBoot);
}

void
DefenseController::noteRollback(double t, std::uint32_t regionId)
{
    // Progress test: a recovery that merely re-commits the rolled-back
    // region before dying again (one commit per power cycle) is a
    // livelock, not progress — the commit counter advances while the
    // frontier stays put.  Only >=2 commits since the previous rollback
    // (the redo plus something new) re-arm the budget.
    const std::uint64_t commitsSince =
        state_.lastCommitCount - state_.commitCountAtRollback;
    state_.commitCountAtRollback = state_.lastCommitCount;
    state_.redoCommitPending = true;
    if (regionId == state_.lastRollbackRegion && commitsSince <= 1) {
        ++state_.consecutiveRollbacks;
    } else {
        state_.lastRollbackRegion = regionId;
        state_.consecutiveRollbacks = 1;
    }
    if (state_.mode != Mode::kDegraded &&
        state_.consecutiveRollbacks >
            static_cast<std::uint64_t>(config_.rollbackBudgetPerRegion))
        tripRatchet(t, regionId, state_.consecutiveRollbacks);
}

void
DefenseController::noteCommit(std::uint64_t commitCount)
{
    if (commitCount <= state_.lastCommitCount)
        return;
    std::uint64_t committed = commitCount - state_.lastCommitCount;
    state_.lastCommitCount = commitCount;
    // The first commit after a rollback merely redoes the rolled-back
    // region: the frontier hasn't moved, so it earns no credit.
    // Without this gate an outage-phase-locked burst that forces one
    // rollback per power cycle farms a boot-quantum of credit from
    // every redo and the debt ledger never trips.
    if (state_.redoCommitPending) {
        state_.redoCommitPending = false;
        --committed;
    }
    // Each committed region pays one boot-quantum of debt back.  The
    // credit is bounded (not a wholesale clear) so an attack that lets
    // a trickle of progress through cannot keep the ledger from
    // integrating its boot churn.  The rollback budget re-arms in
    // noteRollback, which can tell a redo-commit from real progress.
    state_.stats.energyDebtJ = std::max(
        0.0, state_.stats.energyDebtJ -
                 plant_.bootEnergyJ * static_cast<double>(committed));
    if (state_.mode == Mode::kDegraded)
        state_.committedSinceDegrade = true;
}

void
DefenseController::noteRetriesExhausted(double t)
{
    addEvidence(t, config_.scoreAttack, kEvidenceRetries);
    // Persistent save failures mean the NVM write path itself is being
    // disturbed: go straight to the ratcheted rollback-only mode.
    escalateTo(t, Mode::kDegraded);
}

void
DefenseController::noteSleepEnter(double t, double fullChargeEstS)
{
    if (state_.mode == Mode::kDegraded && fullChargeEstS >= 0.0)
        state_.wakeNotBefore = t + fullChargeEstS;
    else
        state_.wakeNotBefore = -1.0;
}

void
DefenseController::noteEnergyCost(double t, double joules)
{
    state_.stats.energyDebtJ += joules;
    state_.stats.peakEnergyDebtJ =
        std::max(state_.stats.peakEnergyDebtJ, state_.stats.energyDebtJ);
    if (state_.mode != Mode::kDegraded &&
        state_.stats.energyDebtJ > debtBudgetJ_)
        tripRatchet(t, state_.lastRollbackRegion, state_.consecutiveRollbacks);
}

bool
DefenseController::wakeDwellElapsed(double t) const
{
    return state_.mode != Mode::kDegraded || state_.wakeNotBefore < 0.0 ||
           t >= state_.wakeNotBefore - 1e-12;
}

bool
DefenseController::wakeAllowed(double t)
{
    if (wakeDwellElapsed(t))
        return true;
    ++state_.stats.wakesDeferred;
    return false;
}

std::optional<DefenseStats>
DefenseController::steadyUnder(const SteadyRun& run) const
{
    // Every sample must carry physics evidence: the first against its
    // real gap since the previous sample, the rest against the widest
    // gap of the run (the bound is monotone in the gap).
    if (lastSampleT_ < 0.0 || !(run.tFirst > lastSampleT_) ||
        !(run.spanMin > physicsBound(run.tFirst - lastSampleT_)) ||
        !(run.spanMin > physicsBound(run.gapMax)))
        return std::nullopt;
    if (run.sleeping) {
        // wakeAllowed is monotone in t: elapsed at the first sample
        // means elapsed, and side-effect free, for the whole run.
        if (run.primary.wake && !wakeDwellElapsed(run.tFirst))
            return std::nullopt;
    } else if (!commitsFold()) {
        return std::nullopt;
    }
    // One sample on a copy.  observeSample reads the last-sample record
    // only in the physics test, which the bounds above settle for every
    // sample; the time only on a mode change and sinceDeescalation_
    // only on an escalation; and every sample sees the same views.  So
    // a sample that leaves the state equal, with no de-escalation (the
    // count since one advanced), leaves it equal for all of them.  Any
    // envelope of span spanMin carries the run's physics evidence.
    DefenseController copy = *this;
    {
        trace::BufferScope untraced(nullptr);
        copy.observeSample(run.tFirst, 0.0, run.spanMin, run.primary,
                           run.shadow);
    }
    DefenseStats perSample;
    forEachCount([&](auto field) {
        perSample.*field = copy.state_.stats.*field - state_.stats.*field;
        copy.state_.stats.*field = state_.stats.*field;
    });
    if (copy.state_ != state_ ||
        copy.sinceDeescalation_ != advanced(sinceDeescalation_, 1))
        return std::nullopt;
    return perSample;
}

void
DefenseController::fastForward(const DefenseStats& perSample,
                               std::uint64_t n, double tLast, double vLast)
{
    forEachCount(
        [&](auto field) { state_.stats.*field += n * perSample.*field; });
    sinceDeescalation_ = advanced(sinceDeescalation_, n);
    lastSampleT_ = tLast;
    lastSampleV_ = vLast;
}

int
DefenseController::backoffCycles(int attempt) const
{
    const int a = std::max(attempt, 0);
    if (state_.mode == Mode::kNominal)
        return linearBackoffCycles(a);
    const int shift = std::min(a, 20);
    const long long exp = static_cast<long long>(kBackoffBaseCycles) << shift;
    return static_cast<int>(
        std::min<long long>(exp, config_.backoffCapCycles));
}

void
DefenseController::archiveState(campaign::Archive& ar)
{
    ar.section("defense_controller");
    std::uint8_t mode = static_cast<std::uint8_t>(state_.mode);
    ar.u8(mode);
    if (!ar.saving()) {
        if (mode > static_cast<std::uint8_t>(Mode::kDegraded))
            throw campaign::SnapshotError("defense: bad mode encoding");
        state_.mode = static_cast<Mode>(mode);
    }
    ar.f64(state_.score);
    ar.boolean(state_.aboveSuspicion);
    ar.i32(state_.calmRun);
    ar.i32(state_.relapseLevel);
    ar.u64(sinceDeescalation_);
    ar.boolean(state_.redoCommitPending);
    ar.f64(lastSampleT_);
    ar.f64(lastSampleV_);
    ar.i32(state_.pendingBackup.lead);
    ar.i32(state_.pendingBackup.age);
    ar.i32(state_.pendingWake.lead);
    ar.i32(state_.pendingWake.age);
    ar.u32(state_.lastRollbackRegion);
    ar.u64(state_.consecutiveRollbacks);
    ar.u64(state_.lastCommitCount);
    ar.u64(state_.commitCountAtRollback);
    ar.boolean(state_.committedSinceDegrade);
    ar.f64(state_.wakeNotBefore);
    ar.counters(state_.stats);
    if (ar.saving())
        return;
    // The counters the controller shifts by or keeps incrementing must
    // be ones it could have reached: calmDwell shifts by the relapse
    // level, and calmRun and the edge windows count up from there.
    auto inRange = [](int v, int lo, int hi) { return lo <= v && v <= hi; };
    if (!inRange(state_.relapseLevel, 0, kRelapseLevelCap))
        throw campaign::SnapshotError("defense: relapse level out of range");
    if (!inRange(state_.calmRun, 0, kMaxCalmDwell))
        throw campaign::SnapshotError("defense: calm run out of range");
    for (const PendingEdge* edge : {&state_.pendingBackup, &state_.pendingWake})
        if (!inRange(edge->lead, -1, 1) ||
            !inRange(edge->age, 0, kEdgeSkewSamples))
            throw campaign::SnapshotError("defense: edge window out of range");
}

}  // namespace gecko::defense
