#ifndef GECKO_ANALOG_VOLTAGE_MONITOR_HPP_
#define GECKO_ANALOG_VOLTAGE_MONITOR_HPP_

#include <memory>
#include <optional>
#include <utility>

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
class AdcMonitor final : public VoltageMonitor
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

    MonitorEvent observe(double seenV) override
    {
        MonitorEvent ev;
        const std::uint32_t code = adc_.sample(seenV);
        const bool below = code < backupCode_;
        const bool above = code >= wakeCode_;
        if (below && !belowBackup_)
            ev.backup = true;
        if (above && !aboveWake_)
            ev.wake = true;
        belowBackup_ = below;
        aboveWake_ = above;
        return ev;
    }
    double sampleIntervalS() const override { return 1.0 / sampleHz_; }
    /** The edge-detection latches (what archiveState saves). */
    std::pair<bool, bool> latches() const
    {
        return {belowBackup_, aboveWake_};
    }
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
class ComparatorMonitor final : public VoltageMonitor
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

    /** A falling backup comparator is a backup edge, a rising wake
     *  comparator a wake edge. */
    MonitorEvent observe(double seenV) override
    {
        const bool backupWas = backupComp_.output();
        const bool wakeWas = wakeComp_.output();
        const bool backupNow = backupComp_.evaluate(seenV);
        const bool wakeNow = wakeComp_.evaluate(seenV);
        return {backupWas && !backupNow, !wakeWas && wakeNow};
    }
    double sampleIntervalS() const override { return 1.0 / checkHz_; }
    bool continuous() const override { return true; }
    /** The comparator outputs (what archiveState saves). */
    std::pair<bool, bool> latches() const
    {
        return {backupComp_.output(), wakeComp_.output()};
    }
    void reset(double v) override;
    void archiveState(campaign::Archive& ar) override;

  private:
    Comparator backupComp_;
    Comparator wakeComp_;
    double checkHz_;
};

/**
 * Observe a window during which the input covered [low, high]
 * (continuous monitors): trough first, then crest — a backup trigger on
 * the trough re-arms on the crest.  A template, so a final monitor's
 * observe binds statically and inlines.
 */
template <class Monitor>
MonitorEvent
observeEnvelope(Monitor& monitor, double low, double high)
{
    const MonitorEvent trough = monitor.observe(low);
    const MonitorEvent crest = monitor.observe(high);
    return {trough.backup || crest.backup, trough.wake || crest.wake};
}

/**
 * Call `fn` with `monitor` as its final class — the continuous one is
 * the comparator monitor — so the monitor calls inside `fn` bind
 * statically and inline.
 */
template <class Fn>
decltype(auto)
visit(const VoltageMonitor& monitor, Fn&& fn)
{
    if (monitor.continuous())
        return fn(static_cast<const ComparatorMonitor&>(monitor));
    return fn(static_cast<const AdcMonitor&>(monitor));
}

/**
 * The steady-event certificate, the monitor side of the simulator's
 * burst guard (DESIGN.md §14): observe a band's two extreme samples on
 * value copies of `monitor` — `low(copy)` and `high(copy)` each observe
 * one — and return their event if both return the same one and leave
 * every latch as it was.  A monitor's decision is monotone in its
 * reading, so every sample between the two then repeats that event
 * with the latches unchanged: `{}` for a quiet band, `{backup, wake}`
 * for a comparator a tone drives through both thresholds on every
 * window.  `std::nullopt` means "unknown", never "unsafe is fine".
 */
template <class Monitor, class Low, class High>
std::optional<MonitorEvent>
steadyEvent(const Monitor& monitor, Low&& low, High&& high)
{
    Monitor atLow = monitor;
    Monitor atHigh = monitor;
    const MonitorEvent ev = low(atLow);
    if (ev == high(atHigh) && atLow.latches() == monitor.latches() &&
        atHigh.latches() == monitor.latches())
        return ev;
    return std::nullopt;
}

/**
 * The certificate for every sample of a rail in [lo, hi] carrying a
 * tone of peak `amplitude`.  A point read lands at a DCO-jittered
 * carrier phase and reads RN(v + RN(A·sin x)) with |sin x| <= 1, so its
 * extreme samples are the reads RN(lo − A) and RN(hi + A); a continuous
 * monitor sees the window envelope [v − A, v + A], so its extremes are
 * the envelopes at v = lo and v = hi.
 */
template <class Monitor>
std::optional<MonitorEvent>
steadyEvent(const Monitor& monitor, double lo, double hi, double amplitude)
{
    if (!(amplitude >= 0.0) || lo > hi)
        return std::nullopt;
    const auto at = [amplitude](double v, double read) {
        return [=](Monitor& m) {
            return m.continuous()
                       ? observeEnvelope(m, v - amplitude, v + amplitude)
                       : m.observe(read);
        };
    };
    return steadyEvent(monitor, at(lo, lo - amplitude),
                       at(hi, hi + amplitude));
}

}  // namespace gecko::analog

#endif  // GECKO_ANALOG_VOLTAGE_MONITOR_HPP_
