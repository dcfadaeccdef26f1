#ifndef GECKO_DEFENSE_CONTROLLER_HPP_
#define GECKO_DEFENSE_CONTROLLER_HPP_

#include <cstdint>
#include <optional>

#include "analog/voltage_monitor.hpp"
#include "defense/defense.hpp"

/**
 * @file
 * The online adaptive defense controller (DESIGN.md §11).
 *
 * One instance rides along with one simulated node.  The intermittent
 * simulator feeds it every monitor observation (both the primary and
 * the shadow monitor's view of the same sample) plus protocol
 * notifications (boot detections, rollbacks, commits, save-retry
 * exhaustion, sleep entries); the runtime and simulator query it for
 * the current checkpoint policy.  The controller is pure deterministic
 * state — no RNG, no clocks — so traces and campaign bytes stay
 * thread-count-invariant.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::defense {

/** Evidence bits carried in kDefenseAnomaly's payload `b`. */
enum AnomalyEvidence : std::uint64_t {
    kEvidencePhysics = 0x1,    ///< dV/dt outside the RC bound
    kEvidenceDisagree = 0x2,   ///< monitor views disagree on an edge
    kEvidenceBoot = 0x4,       ///< ACK/timer detection at boot
    kEvidenceRetries = 0x8,    ///< save-retry budget exhausted
};

class DefenseController
{
  public:
    DefenseController(const DefenseConfig& config, const PlantModel& plant);

    // ------------------------------------------------------------------
    // Observations (simulator / runtime → controller).
    // ------------------------------------------------------------------
    /**
     * One monitor sample at time `t`.  Point samples pass vLo == vHi;
     * continuous monitors under attack pass the window envelope.  The
     * controller cross-validates the two monitor views and checks the
     * observed voltage step against the RC physics bound.
     */
    void observeSample(double t, double vLo, double vHi,
                       const analog::MonitorEvent& primary,
                       const analog::MonitorEvent& shadow);

    /** Boot-time detector verdicts (§VI-A ACK / timer evidence). */
    void noteBootEvidence(double t, bool ackDetect, bool timerDetect);

    /** A rollback recovery of `regionId` just ran (ratchet input). */
    void noteRollback(double t, std::uint32_t regionId);

    /** Committed-region progress (monotone commit counter). */
    void noteCommit(std::uint64_t commitCount);

    /** The bounded checkpoint-save retry budget ran out. */
    void noteRetriesExhausted(double t);

    /**
     * The node entered sleep at `t`; `fullChargeEstS` is the physics
     * estimate of the time to recharge to V_on (negative =
     * unreachable).  In kDegraded this arms the recharge dwell that
     * gates forgeable monitor wakes.
     */
    void noteSleepEnter(double t, double fullChargeEstS);

    /** Energy charged to the debt ledger (boot/rollback overhead). */
    void noteEnergyCost(double t, double joules);

    // ------------------------------------------------------------------
    // Policy queries (controller → runtime / simulator).
    // ------------------------------------------------------------------
    Mode mode() const { return state_.mode; }
    double score() const { return state_.score; }

    /** May the JIT checkpoint protocol be trusted right now? */
    bool jitAllowed() const { return state_.mode <= Mode::kSuspicious; }

    /**
     * May a monitor wake signal boot the node at time `t`?  Always true
     * outside kDegraded; inside it, the physics-timed recharge dwell
     * must have elapsed (wake signals are forgeable, timers are not).
     */
    bool wakeAllowed(double t);

    /** Pure form of wakeAllowed: the same verdict, no counter moves. */
    bool wakeDwellElapsed(double t) const;

    /**
     * A run of consecutive samples the simulator proposes to skip: the
     * first at `tFirst`, later ones at most `gapMax` apart, every one
     * with envelope span vHi − vLo of at least `spanMin` and the same
     * monitor views.  Sleep samples query wakeAllowed on each primary
     * wake; running samples fold their commit notifications into one
     * noteCommit with the final count.
     */
    struct SteadyRun {
        double tFirst = 0.0;
        double gapMax = 0.0;
        double spanMin = 0.0;
        analog::MonitorEvent primary;
        analog::MonitorEvent shadow;
        bool sleeping = false;
    };

    /**
     * Fixed-point certificate (DESIGN.md §14): every sample of `run`
     * carries physics evidence and maps the controller onto itself,
     * and the run's other notifications are inert or batch exactly.
     * Decided by one observeSample of the run's first sample on a copy:
     * @return the counter increments of one sample of the run (the
     * integer fields; the doubles are unused), or nullopt.
     */
    std::optional<DefenseStats> steadyUnder(const SteadyRun& run) const;

    /**
     * Replay `n` samples of a run steadyUnder certified with per-sample
     * increments `perSample`: n times each increment, then the last
     * sample's time `tLast` and envelope midpoint `vLast`.
     */
    void fastForward(const DefenseStats& perSample, std::uint64_t n,
                     double tLast, double vLast);

    /**
     * Whether the noteCommit calls of a run of running samples may fold
     * into one with the final count, the samples evaluated without
     * them: the debt ledger is empty (max(0, 0 − credit) clamps to 0
     * however commits group), and no calm dwell in kDegraded waits on
     * a first commit.  The run must stop before any mode change.
     */
    bool commitsFold() const
    {
        return state_.stats.energyDebtJ <= 0.0 &&
               (state_.mode != Mode::kDegraded ||
                state_.committedSinceDegrade);
    }

    /**
     * Save-retry backoff for `attempt` (0-based), in cycles.  kNominal
     * keeps the static linearBackoffCycles schedule; escalated modes
     * back off exponentially with a cap so a sustained burst cannot be
     * ridden out by hammering the NVM.
     */
    int backoffCycles(int attempt) const;

    const DefenseStats& stats() const { return state_.stats; }
    const DefenseConfig& config() const { return config_; }

    /**
     * Serialize/restore the controller's pure state: mode ladder,
     * anomaly score, ratchet, recharge dwell, and counters.  The
     * config and plant-derived constants are ctor inputs, not
     * archived.
     */
    void archiveState(campaign::Archive& ar);

  private:
    void addEvidence(double t, double weight, std::uint64_t evidence);
    /// Largest legitimate envelope span or step over a `gapS` gap.
    double physicsBound(double gapS) const
    {
        return gapS * maxSlewVps_ + kPhysicsMarginV;
    }
    /// Calm dwell currently required to step one mode down:
    /// calmSamples doubled once per relapse level.
    int calmDwell() const;
    void decayAndMaybeDeescalate(double t);
    /// One-monitor edge pulse awaiting the other monitor's matching
    /// pulse (lead: +1 primary, -1 shadow, 0 empty).
    struct PendingEdge {
        int lead = 0;
        int age = 0;
        bool operator==(const PendingEdge&) const = default;
    };
    /// Track one edge kind (backup or wake) through the skew window;
    /// returns the number of disagreement charges that matured.
    int trackEdge(PendingEdge& pending, bool primaryPulse,
                  bool shadowPulse);
    void escalateTo(double t, Mode target);
    void setMode(double t, Mode next);
    void tripRatchet(double t, std::uint32_t regionId,
                     std::uint64_t count);

    DefenseConfig config_;
    PlantModel plant_;
    /// Max legitimate |dV/dt| (V/s): discharge + charge slew.
    double maxSlewVps_ = 0.0;
    double debtBudgetJ_ = 0.0;

    /// All controller state but the sample clock below.  steadyUnder
    /// compares it across one sample on a copy, the per-sample counters
    /// rebased: a sample that leaves it equal is a fixed point.
    struct State {
        Mode mode = Mode::kNominal;
        double score = 0.0;
        bool aboveSuspicion = false;  ///< anomaly-edge latch (traced once)
        int calmRun = 0;
        /// Relapse-hardened hysteresis: dwell doublings earned by
        /// re-escalating soon after a de-escalation.
        int relapseLevel = 0;
        // Edge-skew reconciliation windows (one per edge kind).
        PendingEdge pendingBackup;
        PendingEdge pendingWake;

        // Ratchet state.
        std::uint32_t lastRollbackRegion = ~std::uint32_t{0};
        std::uint64_t consecutiveRollbacks = 0;
        std::uint64_t lastCommitCount = 0;
        /// Commit count at the previous rollback: distinguishes a redo
        /// of the rolled-back region (not progress) from the frontier
        /// moving.
        std::uint64_t commitCountAtRollback = 0;
        /// Set by a rollback: the next commit is the redo of the
        /// rolled-back region and earns no energy-debt credit.
        bool redoCommitPending = false;
        bool committedSinceDegrade = false;

        /// Recharge dwell (kDegraded wake gate).
        double wakeNotBefore = -1.0;

        DefenseStats stats;

        bool operator==(const State&) const = default;
    };
    State state_;
    /// Samples since the last de-escalation, saturating at "never".
    std::uint64_t sinceDeescalation_ = ~std::uint64_t{0};
    double lastSampleT_ = -1.0;
    double lastSampleV_ = -1.0;
};

}  // namespace gecko::defense

#endif  // GECKO_DEFENSE_CONTROLLER_HPP_
