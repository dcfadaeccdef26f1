#ifndef GECKO_ATTACK_EMI_SOURCE_HPP_
#define GECKO_ATTACK_EMI_SOURCE_HPP_

#include <cstdint>

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

    /** Induced voltage at simulation time `t` (s). */
    double voltageAt(double t) const;

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

}  // namespace gecko::attack

#endif  // GECKO_ATTACK_EMI_SOURCE_HPP_
