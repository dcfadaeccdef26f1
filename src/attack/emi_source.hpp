#ifndef GECKO_ATTACK_EMI_SOURCE_HPP_
#define GECKO_ATTACK_EMI_SOURCE_HPP_

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "analog/voltage_monitor.hpp"
#include "attack/rigs.hpp"

/**
 * @file
 * The attacker's signal generator (paper §III: an RF generator with an
 * antenna, ≤ 35 dBm, single-tone sine).
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::attack {

/**
 * Single-tone EMI source bound to an injection rig.
 *
 * Produces the induced voltage seen at the victim monitor's input at any
 * simulation time.  The amplitude is cached and refreshed whenever the
 * tone changes.
 */
class EmiSource
{
  public:
    /**
     * @param rig how the signal reaches the victim (not owned; must
     *        outlive the source)
     * @param clockSkewPpm frequency offset between the attacker's
     *        generator and the victim's sampling clock.  Independent
     *        oscillators are never phase-locked; without this the
     *        simulated carrier can alias onto a constant phase of the
     *        monitor's sample grid, which no physical setup exhibits.
     */
    EmiSource(const InjectionRig& rig, double freqHz, double powerDbm,
              double clockSkewPpm = 30.0);

    /** Retune the generator. */
    void setTone(double freqHz, double powerDbm);

    /** Key the carrier on or off (traced as injection on/off edges). */
    void setEnabled(bool enabled);
    bool enabled() const { return enabled_; }

    /**
     * Tag the source with a spatial-grid position: every carrier-on
     * edge then also emits a kSpatialHit event (a=cell, b=coupling in
     * milli-units), so traces record *where* the injection coupled.
     */
    void setGridTag(std::uint64_t cell, std::uint64_t couplingMilli);

    double freqHz() const { return freqHz_; }
    double powerDbm() const { return powerDbm_; }

    /** Peak induced amplitude at the victim (V). */
    double amplitude() const { return enabled_ ? amplitude_ : 0.0; }

    /**
     * Carrier phase (rad) at simulation time `t` (s): 2π·f·t, with f
     * the generator frequency seen through the clock skew.  A point
     * read at `t` reads `pointRead(v, amplitude(), sin(phaseAt(t)))`.
     */
    double phaseAt(double t) const
    {
        const double f = freqHz_ * (1.0 + skewPpm_ * 1e-6);
        return 2.0 * M_PI * f * t;
    }

    /**
     * Serialize/restore the tone state *directly* — setEnabled/setTone
     * emit kEmiOn/kEmiOff edge events, and a restore must not (a
     * resumed run would otherwise diverge from the uninterrupted
     * trace).
     */
    void archiveState(campaign::Archive& ar);

  private:
    const InjectionRig& rig_;
    double freqHz_;
    double powerDbm_;
    double amplitude_;
    double skewPpm_;
    bool enabled_ = true;
    bool hasGridTag_ = false;
    std::uint64_t gridCell_ = 0;
    std::uint64_t gridCouplingMilli_ = 0;
};

/**
 * The point read of rail `v` under a tone of peak `a` ≥ 0 at a carrier
 * phase whose sine is `s`: v + a·s, each operation rounded.  Monotone
 * in `s`, which the zone read relies on.
 */
inline double
pointRead(double v, double a, double s)
{
    return v + a * s;
}

/// δ of the zone read: boundedSin(x) lies within δ/2 of glibc's sin(x).
inline constexpr double kZoneDelta = 1e-11;
/// Largest |x| (rad) boundedSin accepts: k = round(|x|·2/π) < 2^31.
inline constexpr double kBoundedSinMaxX = 0x1.8p31;

/**
 * sin x without libm, within kZoneDelta / 2 of glibc's `std::sin(x)`
 * for |x| ≤ kBoundedSinMaxX (DESIGN.md §14 "Zone reads"), nullopt
 * beyond.
 */
std::optional<double> boundedSin(double x);

/**
 * Observe on `monitor` the point read `pointRead(v, a, sin x)` (DESIGN.md
 * §14 "Zone reads").  The zone read observes the reads at
 * `boundedSin(x) ∓ kZoneDelta`, which bracket glibc's: if both ends
 * give the same event and latches, that is the sample.  Otherwise —
 * or past the kernel's bound — glibc's `sin` forms the read.
 * @return the event, and whether glibc's `sin` ran.
 */
template <class Monitor>
std::pair<analog::MonitorEvent, bool>
observePointRead(Monitor& monitor, double v, double a, double x)
{
    if (const std::optional<double> s = boundedSin(x)) {
        const auto at = [v, a](double end) {
            return [read = pointRead(v, a, end)](Monitor& m) {
                return m.observe(read);
            };
        };
        if (const std::optional<analog::MonitorEvent> ev =
                analog::bracketEvent(monitor, at(*s - kZoneDelta),
                                     at(*s + kZoneDelta)))
            return {*ev, false};
    }
    return {monitor.observe(pointRead(v, a, std::sin(x))), true};
}

}  // namespace gecko::attack

#endif  // GECKO_ATTACK_EMI_SOURCE_HPP_
