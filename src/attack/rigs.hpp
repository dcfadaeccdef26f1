#ifndef GECKO_ATTACK_RIGS_HPP_
#define GECKO_ATTACK_RIGS_HPP_

#include "device/device_profile.hpp"

/**
 * @file
 * Injection rigs: how the attacker's signal reaches the victim's voltage
 * monitor (paper §IV).
 *
 * DpiRig models direct power injection through points P1 (power line) or
 * P2 (capacitor node) of Fig. 3 — no path loss, precise power control.
 * RemoteRig models a radiating antenna at a distance, optionally through
 * a wall (Fig. 6/8).
 */

namespace gecko::attack {

/** Common interface: peak induced amplitude at the monitor input. */
class InjectionRig
{
  public:
    virtual ~InjectionRig() = default;

    /** Induced amplitude (V) for a tone at `freqHz` with `powerDbm`. */
    virtual double amplitude(double freqHz, double powerDbm) const = 0;
};

/** DPI injection points of Fig. 3. */
enum class DpiPoint {
    kP1,  ///< power line between harvester and capacitor
    kP2,  ///< capacitor node feeding the voltage monitor
};

/** Direct power injection rig. */
class DpiRig : public InjectionRig
{
  public:
    DpiRig(const device::DeviceProfile& dev, DpiPoint point);

    double amplitude(double freqHz, double powerDbm) const override;

  private:
    const device::DeviceProfile& dev_;
    DpiPoint point_;
};

/** Remote (radiated) attack rig. */
class RemoteRig : public InjectionRig
{
  public:
    /**
     * @param path monitor path being attacked (ADC or comparator input)
     * @param distanceM antenna-to-victim distance
     * @param wallAttenuationDb extra attenuation for walls/doors
     */
    RemoteRig(const device::DeviceProfile& dev, analog::MonitorKind path,
              double distanceM, double wallAttenuationDb = 0.0);

    double amplitude(double freqHz, double powerDbm) const override;

    double distance() const { return distanceM_; }

  private:
    const device::DeviceProfile& dev_;
    analog::MonitorKind path_;
    double distanceM_;
    double wallDb_;
};

}  // namespace gecko::attack

#endif  // GECKO_ATTACK_RIGS_HPP_
