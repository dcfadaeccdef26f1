#ifndef GECKO_DEVICE_DEVICE_PROFILE_HPP_
#define GECKO_DEVICE_DEVICE_PROFILE_HPP_

#include <string>

#include "analog/resonance.hpp"
#include "analog/voltage_monitor.hpp"
#include "energy/power_model.hpp"

/**
 * @file
 * Per-device model of one commodity intermittent-system MCU.
 *
 * Encodes what the paper measured per board (Table I): which voltage
 * monitors exist, the EMI coupling response of each monitor path (remote
 * and DPI P1/P2), the monitor sampling characteristics, and the
 * operating thresholds.
 */

namespace gecko::device {

/** Static description of one evaluation board. */
struct DeviceProfile {
    std::string name;

    /// Every board has an ADC monitor; some also have a comparator.
    bool hasComparatorMonitor = false;

    /// ADC monitor resolution and conversion rate.
    int adcBits = 12;
    double adcSampleHz = 100e3;
    /// Comparator monitor equivalent evaluation rate and hysteresis.
    double compCheckHz = 2e6;
    double compHysteresisV = 0.02;

    /// Remote EMI coupling into the ADC monitor path.
    analog::ResonanceCurve adcRemote;
    /// Remote EMI coupling into the comparator monitor path.
    analog::ResonanceCurve compRemote;
    /// DPI transfer response at injection points P1 (power line) and
    /// P2 (capacitor node, broader band per Fig. 4).
    analog::ResonanceCurve dpiP1;
    analog::ResonanceCurve dpiP2;
    double dpiCouplingP1 = 0.9;
    double dpiCouplingP2 = 1.5;

    /// Operating thresholds (V).
    double vccNominal = 3.3;
    double vOn = 3.0;      ///< wake / restore threshold
    double vBackup = 2.2;  ///< JIT checkpoint threshold
    double vOff = 2.08;    ///< brown-out: CPU dies below this

    energy::PowerModel power;

    /** Remote coupling curve of the monitor path for `kind`. */
    const analog::ResonanceCurve&
    remoteCurve(analog::MonitorKind kind) const
    {
        return kind == analog::MonitorKind::kAdc ? adcRemote : compRemote;
    }
};

}  // namespace gecko::device

#endif  // GECKO_DEVICE_DEVICE_PROFILE_HPP_
