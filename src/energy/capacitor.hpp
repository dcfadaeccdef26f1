#ifndef GECKO_ENERGY_CAPACITOR_HPP_
#define GECKO_ENERGY_CAPACITOR_HPP_

#include <algorithm>
#include <cmath>
#include <cstdint>

/**
 * @file
 * Energy-buffer capacitor model.
 *
 * The capacitor is the intermittent system's sole energy store (paper
 * Fig. 1).  State is tracked as stored energy E = ½CV²; computation
 * discharges it, the harvester charges it through a Thevenin source
 * resistance (which makes charge time grow superlinearly with C — the
 * Fig. 15 effect), and a parallel leakage conductance drains it.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::energy {

/** Capacitor parameters. */
struct CapacitorConfig {
    /// Capacitance in farad (paper sweeps 1 mF .. 10 mF).
    double capacitanceF = 1e-3;
    /// Voltage at simulation start.
    double initialV = 3.3;
    /// Clamp voltage (harvester/regulator limit).
    double maxV = 3.3;
    /// Parallel leakage conductance in siemens.
    double leakageS = 2e-7;
};

/** The energy-buffer capacitor. */
class Capacitor
{
  public:
    explicit Capacitor(const CapacitorConfig& config);

    /** Current terminal voltage (V). */
    double voltage() const
    {
        return std::sqrt(2.0 * energyJ_ / config_.capacitanceF);
    }

    /** Stored energy (J). */
    double energy() const { return energyJ_; }

    double capacitance() const { return config_.capacitanceF; }

    double maxVoltage() const { return config_.maxV; }

    /**
     * Draw `joules` from the buffer: commit the discharge half of one
     * step (`drawnEnergy`).  Inline: this is the simulator's
     * per-quantum hot path (millions of calls per figure).
     * @return the energy actually drawn (less than requested iff the
     *         buffer ran dry).
     */
    double discharge(double joules)
    {
        const double drawn = std::min(joules, energyJ_);
        commitEnergy(drawnEnergy(energyJ_, joules));
        return drawn;
    }

    /**
     * Batched-discharge support for the simulator's execution quanta:
     * the number of whole cycles at `epcJ` joules/cycle a buffer
     * holding `energyJ` can afford before the stored energy would fall
     * to `floorEnergyJ`.  This is the crossing-safe bound the
     * block-compiled backend's entry guard relies on — a run budgeted
     * by this value can never discharge across the floor threshold
     * mid-block, so threshold crossings are only ever observed at
     * batch-commit granularity (dischargeCycles), identically for every
     * execution tier.
     */
    static std::uint64_t affordableCycles(double energyJ, double epcJ,
                                          double floorEnergyJ)
    {
        const double avail = energyJ - floorEnergyJ;
        return avail > 0 ? static_cast<std::uint64_t>(avail / epcJ) : 0;
    }

    /**
     * Commit one batch of computation: draw `cycles * epcJ` in a single
     * RC update.  Threshold-crossing trace events fire here, once per
     * batch — per-instruction discharge would emit the same crossings
     * (energy is linear in cycles) but 10^3x more integration steps.
     * @return joules actually drawn.
     */
    double dischargeCycles(std::uint64_t cycles, double epcJ)
    {
        return discharge(static_cast<double>(cycles) * epcJ);
    }

    /**
     * Charge from a Thevenin source (`vOc`, `rSeries`) for `dt` seconds,
     * including leakage: settle the outage latch, then commit the
     * charge half of one step (`chargedEnergy`).  Uses the exact
     * solution of the linear RC ODE, so arbitrarily large steps are
     * stable.
     */
    void chargeFrom(double vOc, double rSeries, double dt);

    /** Let only leakage act for `dt` seconds (an open-circuit source). */
    void leak(double dt);

    /**
     * Precomputed coefficients of one `chargeFrom(vOc, rSeries, dt)`
     * step.  When the simulator's burst fast path has proven the
     * source steady over a whole burst (constant vOc and rSeries,
     * fixed dt), the Thevenin divide/exp work is hoisted out of the
     * per-step march; `stepEnergy` then runs the very halves
     * `discharge` + `chargeFrom` commit, with these constants.
     */
    struct ChargePlan {
        double vOc = 0.0;
        double vInf = 0.0;      ///< b/a — steady-state voltage
        double rcDecay = 1.0;   ///< e^{-a dt}
        double leakDecay = 1.0; ///< e^{-G dt / C}
    };

    /** Build the coefficients `chargeFrom` would derive per call. */
    ChargePlan planCharge(double vOc, double rSeries, double dt) const
    {
        ChargePlan p;
        p.vOc = vOc;
        const double c = config_.capacitanceF;
        const double a = 1.0 / (rSeries * c) + config_.leakageS / c;
        const double b = vOc / (rSeries * c);
        p.vInf = b / a;
        p.rcDecay = std::exp(-a * dt);
        p.leakDecay = std::exp(-config_.leakageS * dt / c);
        return p;
    }

    /**
     * `planCharge(vOc, rSeries, dt)` through the memo `chargeFrom`
     * keeps (derived state, never archived): harvesters are
     * piecewise-constant and the simulation quantum is fixed over long
     * spans, so consecutive steps repeat the same inputs.  A hit
     * returns the doubles a fresh plan would hold.
     */
    const ChargePlan& chargePlan(double vOc, double rSeries, double dt)
    {
        if (vOc != planVoc_ || rSeries != planRs_ || dt != planDt_) {
            plan_ = planCharge(vOc, rSeries, dt);
            planVoc_ = vOc;
            planRs_ = rSeries;
            planDt_ = dt;
        }
        return plan_;
    }

    /**
     * The discharge half of one step: the stored energy after drawing
     * `joules` from `energyJ`, as `E − min(j, E)` — which rounds like
     * `max(E − j, 0)`: a difference of two doubles is zero only when
     * they are equal, so `E − j` is negative exactly when the draw
     * exceeds the buffer.
     */
    static double drawnEnergy(double energyJ, double joules)
    {
        return std::max(energyJ - joules, 0.0);
    }

    /**
     * The charge half of one step: the stored energy after `energyJ`
     * charges under plan `p` — the exact RC step V∞ + (V − V∞)e^{-a dt}
     * from a source above the rail, pure leakage V·e^{-G dt / C} from
     * one at or below it (the front end rectifies: no reverse
     * current), clamped at `maxV`.
     */
    static double chargedEnergy(double energyJ, const ChargePlan& p,
                                double capacitanceF, double maxV)
    {
        double v = std::sqrt(2.0 * energyJ / capacitanceF);
        if (p.vOc <= v)
            v = v * p.leakDecay;
        else
            v = p.vInf + (v - p.vInf) * p.rcDecay;
        // Both branches keep v >= 0, so the clamp is the upper bound
        // alone; taking it after the squaring (½CV² is monotone in V)
        // leaves the multiply chain free of it.
        const double e = 0.5 * capacitanceF * v * v;
        return v > maxV ? 0.5 * capacitanceF * maxV * maxV : e;
    }

    /**
     * The stored energy after one simulation step from `energyJ`: the
     * discharge half, then the charge half under plan `p` — what
     * `discharge(joules)` followed by `chargeFrom` commits.  Pure and
     * static so the simulator's bursts march the same floating-point
     * operations on local copies and commit the marched end state once
     * (`commitEnergy`).
     */
    static double stepEnergy(double energyJ, double joules,
                             const ChargePlan& p, double capacitanceF,
                             double maxV)
    {
        return chargedEnergy(drawnEnergy(energyJ, joules), p, capacitanceF,
                             maxV);
    }

    /**
     * Commit an energy level: a discharge half, or a level the
     * simulator's bursts and JIT word segments marched on local copies.
     * Traces the threshold crossings between the two levels; callers
     * commit one step at a time whenever a trace buffer is installed,
     * so every crossing keeps its own timestamp.
     */
    void commitEnergy(double energyJ)
    {
        const double prevE = energyJ_;
        energyJ_ = energyJ;
        if (watching_ && prevE != energyJ_)
            traceCrossings(prevE, energyJ_);
    }

    /**
     * Settle the harvester-outage trace latch for source voltage `vOc`
     * without charging.  A burst calls this once; with a steady source
     * it is equivalent to the per-step `traceOutage` the slow path
     * performs inside `chargeFrom`.
     */
    void noteSource(double vOc) { noteOutage(vOc); }

    /**
     * The largest stored energy whose `voltage()` is at most `v` (a
     * finite voltage >= 0), so that `voltage() > v` ⇔
     * `energy() > ceilingEnergy(v)`.  The
     * rounded map E ↦ √(2E/C) is monotone, so a bisection over the
     * doubles finds the boundary once and a per-step comparison
     * replaces the divide and square root.
     */
    double ceilingEnergy(double v) const;

    /**
     * Time needed for `chargeFrom(vOc, rSeries, ·)` to lift the voltage
     * to `targetV`.
     * @return seconds, or a negative value if `targetV` is unreachable
     *         (above the steady-state voltage).
     */
    double timeToReach(double targetV, double vOc, double rSeries) const;

    /** Force the voltage (used by tests and scenario setup). */
    void setVoltage(double v)
    {
        v = std::clamp(v, 0.0, config_.maxV);
        energyJ_ = 0.5 * config_.capacitanceF * v * v;
    }

    /**
     * Arm trace emission of threshold crossings (V_off, V_backup, V_on)
     * and harvester outage edges.  Off by default; the intermittent
     * simulator arms it when event tracing is compiled in.  Purely
     * observational — never changes the energy state.
     */
    void watchThresholds(double vOff, double vBackup, double vOn);

    /**
     * Serialize/restore the energy state plus the outage trace latch.
     * Configuration and the watch thresholds are reconstructed by the
     * owning simulator, not archived.
     */
    void archiveState(campaign::Archive& ar);

  private:
    /// Open-circuit voltage below which the harvester counts as dark.
    static constexpr double kOutageVocV = 0.05;

    // Crossing detection runs in the energy domain (E = ½CV² is strictly
    // monotone in V) so the per-quantum discharge path never needs the
    // sqrt in voltage() just to feed tracing.
    void traceCrossings(double prevE, double newE);
    bool tracingCrossings() const;
    /// Commit the charge half of one step under plan `p`.
    void commitCharge(const ChargePlan& p);
    /// Settle the outage latch (archived state, kept with or without a
    /// trace buffer); only an edge leaves the inline test.
    void noteOutage(double vOc)
    {
        if (watching_ && (vOc < kOutageVocV) != outage_)
            traceOutage(vOc);
    }
    void traceOutage(double vOc);

    CapacitorConfig config_;
    double energyJ_;
    // The chargePlan memo and its key.
    double planVoc_ = -1.0;
    double planRs_ = -1.0;
    double planDt_ = -1.0;
    ChargePlan plan_{};
    // Trace-only state (inert unless watchThresholds was called).
    bool watching_ = false;
    bool outage_ = false;
    double thresholds_[3] = {0.0, 0.0, 0.0};
    double thresholdsE_[3] = {0.0, 0.0, 0.0};
};

/**
 * Energy between two voltage levels for capacitance `c`:
 * ½c(v_hi² − v_lo²).
 */
double bufferedEnergy(double c, double vHi, double vLo);

}  // namespace gecko::energy

#endif  // GECKO_ENERGY_CAPACITOR_HPP_
