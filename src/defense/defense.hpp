#ifndef GECKO_DEFENSE_DEFENSE_HPP_
#define GECKO_DEFENSE_DEFENSE_HPP_

#include <cstdint>
#include <string>

#include "metrics/counter_field.hpp"

/**
 * @file
 * Types of the adaptive attack-aware defense controller.
 *
 * The paper evaluates its defenses (ACK/timer detectors, idempotent
 * regions) as a *static* configuration (§VI, Fig. 13).  The controller
 * in this directory closes the loop online instead: it scores EMI
 * anomalies from the redundant monitor views and the capacitor's RC
 * physics, escalates through a hysteretic mode ladder, and enforces a
 * forward-progress ratchet so a sustained attack can degrade throughput
 * but never livelock a workload that fits the power period.  See
 * DESIGN.md §11.
 */

namespace gecko::defense {

/**
 * Escalation ladder.  Checkpoint policy per mode:
 *  - kNominal:    JIT-trusting (paper default, linear retry backoff)
 *  - kSuspicious: guarded JIT with exponential-with-cap save backoff
 *  - kUnderAttack: JIT disabled, rollback-only recovery
 *  - kDegraded:   rollback-only plus the forward-progress ratchet —
 *    monitor wake signals are distrusted and boots are gated on a
 *    physics-timed recharge dwell.
 */
enum class Mode : std::uint8_t {
    kNominal = 0,
    kSuspicious = 1,
    kUnderAttack = 2,
    kDegraded = 3,
};

/** Stable lowercase name ("nominal", "suspicious", ...). */
const char* modeName(Mode mode);

/// A sample is "calm" (eligible for de-escalation) below this score.
inline constexpr double kScoreClear = 0.5;
/// Score saturation ceiling, so de-escalation latency is bounded.
inline constexpr double kScoreMax = 8.0;
/// Evidence weight of each boot-time ACK/timer detection (§VI-A).
inline constexpr double kBootEvidenceWeight = 1.5;
/// Evidence weight: the two monitor views disagree on an edge.
inline constexpr double kDisagreeWeight = 0.4;
/// Evidence weight: observed dV/dt violates the RC physics bound.
inline constexpr double kPhysicsWeight = 1.2;
/// Slack (V) added to the physics bound — absorbs quantization and
/// sampling-phase error without admitting volt-scale EMI swings.
inline constexpr double kPhysicsMarginV = 0.05;
/// Redundant monitors with different quantization and sampling cadence
/// legitimately flag the *same* supply edge a sample or two apart (e.g.
/// the wake crossing during a harvester-outage restore ramp).  A lone
/// edge pulse is therefore held pending this many samples; a matching
/// pulse from the other monitor inside the window reconciles the pair
/// as benign skew instead of evidence.  An attacker gains nothing from
/// the grace: a forged trough couples into only one sensing path, never
/// earns the matching pulse, and is charged when the window closes
/// (one-sample detection latency).
inline constexpr int kEdgeSkewSamples = 1;
/// A re-escalation out of kNominal within this many samples of the last
/// de-escalation is a *relapse*: each relapse doubles the calm dwell (up
/// to kRelapseLevelCap doublings), so a duty-cycled tone that waits out
/// the dwell and re-attacks pays a geometrically growing price instead
/// of farming the fixed hysteresis.
inline constexpr int kRelapseWindowSamples = 256;
/// Cap on dwell doublings (dwell <= calmSamples << cap).
inline constexpr int kRelapseLevelCap = 4;
/// Unit of every checkpoint-save retry backoff (cycles).
inline constexpr int kBackoffBaseCycles = 256;

/** The static protocol's save-retry backoff before re-attempt
 *  `attempt` (0-based), in cycles: linear, so a short disturbance
 *  burst can pass. */
constexpr int
linearBackoffCycles(int attempt)
{
    return kBackoffBaseCycles * (attempt + 1);
}

/** Controller knobs.  Defaults are inert: `enabled=false` leaves every
 *  existing configuration byte-identical. */
struct DefenseConfig {
    /// Master switch; off by default so the static-paper configurations
    /// are untouched.
    bool enabled = false;

    // --- anomaly scoring ---
    /// Escalate to kSuspicious at this score.
    double scoreSuspicious = 1.0;
    /// Escalate to kUnderAttack at this score.
    double scoreAttack = 2.5;
    /// Exponential decay applied per monitor sample: s *= (1 - decay).
    double decayPerSample = 0.04;

    // --- hysteretic de-escalation ---
    /// Consecutive calm samples required to step *one* level down.
    int calmSamples = 64;

    // --- escalated checkpoint-save policy ---
    /// Cap of the exponential backoff used at kSuspicious and above.
    int backoffCapCycles = 8192;

    // --- forward-progress ratchet ---
    /// Consecutive rollbacks of the *same* region tolerated before the
    /// ratchet trips to kDegraded.
    int rollbackBudgetPerRegion = 4;
    /// Energy-debt ceiling (J); 0 = derive from the physics at
    /// construction (a few full-buffer discharges).
    double energyDebtBudgetJ = 0.0;
};

/**
 * Plant constants the controller's physics plausibility check and
 * ratchet are derived from (all design-time knowns on a real board).
 */
struct PlantModel {
    double clockHz = 8e6;
    double energyPerCycleJ = 3e-9;
    double sleepPowerW = 2e-6;
    double capacitanceF = 1e-3;
    /// Nominal Thevenin source resistance (charge-slew bound).
    double sourceResistance = 5.0;
    double maxV = 3.3;
    double vOn = 3.0;
    double vOff = 2.08;
    /// Fixed cold-boot energy (clock settling, re-init) — the debt
    /// paid back per committed region.  A bounded credit — rather than
    /// clearing the ledger — keeps a trickle of forced progress from
    /// masking sustained forged-wake boot churn.
    double bootEnergyJ = 4.8e-5;
};

/**
 * Resolve a named defense preset (the campaign engine's defense axis):
 *  - "static":   controller off — the paper's static configuration
 *  - "adaptive": controller on with the default knobs
 *  - "strict":   controller on with tightened degraded-entry
 *    thresholds (lower escalation scores, half the rollback budget,
 *    longer calm dwell)
 * @return false for an unknown name (`*out` untouched).
 */
bool presetByName(const std::string& name, DefenseConfig* out);

/** Observable controller counters. */
struct DefenseStats {
    std::uint64_t samples = 0;
    /// Upward crossings of the suspicion threshold (traced).
    std::uint64_t anomalies = 0;
    /// Samples where the two monitor views mismatched (raw, before
    /// edge-skew reconciliation).
    std::uint64_t disagreements = 0;
    /// Mismatch pairs reconciled as benign sampling skew (the other
    /// monitor confirmed the same edge within kEdgeSkewSamples).
    std::uint64_t edgeSkews = 0;
    /// Samples carrying physics-violation evidence.
    std::uint64_t physicsViolations = 0;
    std::uint64_t escalations = 0;
    std::uint64_t deEscalations = 0;
    std::uint64_t ratchetTrips = 0;
    /// Re-escalations out of kNominal within the relapse window of a
    /// de-escalation (each one doubles the calm dwell).
    std::uint64_t relapses = 0;
    /// Monitor wake signals deferred by the kDegraded recharge dwell.
    std::uint64_t wakesDeferred = 0;
    /// Sim time of the first escalation out of kNominal (<0 = never);
    /// the detection-latency numerator of bench/fig_adaptive.
    double firstEscalationT = -1.0;
    /// Outstanding rollback/boot energy not yet paid back by commits.
    double energyDebtJ = 0.0;
    /// High-water mark of the ledger over the run.
    double peakEnergyDebtJ = 0.0;

    bool operator==(const DefenseStats&) const = default;

    /** The field list (metrics/counter_field.hpp). */
    template <class Fn>
    static constexpr void forEachField(Fn&& fn)
    {
        fn({"samples"}, &DefenseStats::samples);
        fn({"anomalies"}, &DefenseStats::anomalies);
        fn({"disagreements"}, &DefenseStats::disagreements);
        fn({"edge_skews"}, &DefenseStats::edgeSkews);
        fn({"physics_violations"}, &DefenseStats::physicsViolations);
        fn({"escalations"}, &DefenseStats::escalations);
        fn({"de_escalations"}, &DefenseStats::deEscalations);
        fn({"ratchet_trips"}, &DefenseStats::ratchetTrips);
        fn({"relapses"}, &DefenseStats::relapses);
        fn({"wakes_deferred"}, &DefenseStats::wakesDeferred);
        fn({"first_escalation_t"}, &DefenseStats::firstEscalationT);
        fn({"energy_debt_j"}, &DefenseStats::energyDebtJ);
        fn({"peak_energy_debt_j"}, &DefenseStats::peakEnergyDebtJ);
    }
};
static_assert(metrics::listsEveryField<DefenseStats>());

}  // namespace gecko::defense

#endif  // GECKO_DEFENSE_DEFENSE_HPP_
