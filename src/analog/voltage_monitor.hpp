#ifndef GECKO_ANALOG_VOLTAGE_MONITOR_HPP_
#define GECKO_ANALOG_VOLTAGE_MONITOR_HPP_

#include <memory>
#include <optional>

#include "analog/adc.hpp"
#include "analog/comparator.hpp"

/**
 * @file
 * Voltage monitors — the heart (and attack surface) of the intermittent
 * system (paper §II-C).
 *
 * The monitor periodically observes what it believes to be V_CC (the
 * real capacitor voltage plus any EMI-induced component) and emits
 *  - a *backup* event on a downward crossing of V_backup (triggering the
 *    JIT checkpoint), and
 *  - a *wake* event on an upward crossing of V_on (triggering restore).
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::analog {

/** Signals emitted by a monitor at one observation. */
struct MonitorEvent {
    bool backup = false;
    bool wake = false;
    bool operator==(const MonitorEvent&) const = default;
};

/** Monitor kinds present on the paper's evaluation boards. */
enum class MonitorKind {
    kAdc,
    kComparator,
};

/** @return display name of a monitor kind. */
const char* monitorKindName(MonitorKind kind);

/** Abstract voltage monitor. */
class VoltageMonitor
{
  public:
    virtual ~VoltageMonitor() = default;

    /**
     * Observe the (possibly EMI-distorted) supply voltage at one sample
     * instant.  Events are edge-triggered: one backup per downward
     * V_backup crossing, one wake per upward V_on crossing.
     */
    virtual MonitorEvent observe(double seenV) = 0;

    /** Interval between observations (s). */
    virtual double sampleIntervalS() const = 0;

    /**
     * True for continuous (analog) monitors: hardware that reacts to any
     * excursion within an observation window, not just the sampled
     * instant.  The simulator then reports the window's envelope
     * (observeEnvelope) instead of point samples.
     */
    virtual bool continuous() const { return false; }

    /**
     * Observe a window during which the input covered
     * [low, high] (continuous monitors only).  Default: trough first,
     * then crest — a backup trigger on the trough re-arms on the crest.
     */
    virtual MonitorEvent observeEnvelope(double low, double high);

    /**
     * Steady-event certificate: the monitor side of the simulator's
     * burst guard (DESIGN.md §14).  Consider every observation the
     * simulator makes while the rail stays inside [lo, hi] with a tone
     * of peak amplitude `amplitude` on it: a point sample of the rail
     * plus a tone reading of at most A in magnitude (an ADC), the
     * window envelope [v − A, v + A] when the monitor is continuous.
     * If each of them provably returns the
     * same event and leaves every latch at its current value, return
     * that event — `{}` for a quiet band, `{backup, wake}` for a
     * comparator the tone drives through both thresholds on every
     * window.  The skipped observations of a burst are then exact
     * repeats of one known step.  `std::nullopt` means "unknown",
     * never "unsafe is fine".
     */
    virtual std::optional<MonitorEvent>
    steadyEvent(double lo, double hi, double amplitude) const = 0;

    /** Re-initialise state as if the supply were at `v`. */
    virtual void reset(double v) = 0;

    /**
     * Serialize/restore the edge-detection latches (thresholds and
     * rates are construction parameters, not archived).
     */
    virtual void archiveState(campaign::Archive& ar) = 0;
};

/**
 * ADC-based monitor (Fig. 2a): samples V_CC at a modest rate through an
 * n-bit converter and compares codes against the thresholds.  The slow
 * sampling is exactly what makes it aliasing-prone under EMI.
 */
class AdcMonitor : public VoltageMonitor
{
  public:
    /**
     * @param adcBits   converter resolution
     * @param fullScaleV converter full scale
     * @param vBackup   checkpoint threshold
     * @param vWake     restore threshold (V_on)
     * @param sampleHz  conversion rate
     */
    AdcMonitor(int adcBits, double fullScaleV, double vBackup, double vWake,
               double sampleHz);

    MonitorEvent observe(double seenV) override;
    double sampleIntervalS() const override { return 1.0 / sampleHz_; }
    std::optional<MonitorEvent> steadyEvent(double lo, double hi,
                                            double amplitude) const override;
    void reset(double v) override;
    void archiveState(campaign::Archive& ar) override;

  private:
    Adc adc_;
    std::uint32_t backupCode_;
    std::uint32_t wakeCode_;
    double sampleHz_;
    bool belowBackup_ = false;
    bool aboveWake_ = true;
};

/**
 * Comparator-based monitor (Fig. 2b): continuous analog hardware with
 * hysteresis.  It catches essentially every EMI trough — which is why
 * the paper measures minimum forward progress two orders of magnitude
 * below the ADC monitors' (Table I).
 */
class ComparatorMonitor : public VoltageMonitor
{
  public:
    /**
     * @param vBackup     checkpoint threshold
     * @param vWake       restore threshold
     * @param hysteresisV comparator hysteresis band
     * @param checkHz     equivalent evaluation rate of the simulation
     */
    ComparatorMonitor(double vBackup, double vWake, double hysteresisV,
                      double checkHz);

    MonitorEvent observe(double seenV) override;
    double sampleIntervalS() const override { return 1.0 / checkHz_; }
    bool continuous() const override { return true; }
    std::optional<MonitorEvent> steadyEvent(double lo, double hi,
                                            double amplitude) const override;
    void reset(double v) override;
    void archiveState(campaign::Archive& ar) override;

  private:
    Comparator backupComp_;
    Comparator wakeComp_;
    double checkHz_;
};

}  // namespace gecko::analog

#endif  // GECKO_ANALOG_VOLTAGE_MONITOR_HPP_
