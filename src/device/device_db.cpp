#include "device/device_db.hpp"

#include <stdexcept>

namespace gecko::device {

using analog::ResonanceCurve;
using analog::ResonantPeak;

namespace {

/** Single-peak remote curve helper. */
ResonanceCurve
peakCurve(double freqMhz, double q, double gain)
{
    ResonanceCurve curve;
    curve.peaks.push_back({freqMhz * 1e6, q, gain});
    curve.lowPassHz = 55e6;
    return curve;
}

/** DPI P1 (power-line injection): resonances only, narrow. */
ResonanceCurve
dpiP1Curve(const ResonanceCurve& remote)
{
    ResonanceCurve curve = remote;
    for (auto& peak : curve.peaks)
        peak.q *= 1.5;  // narrower through the regulator path
    return curve;
}

/** DPI P2 (capacitor node): resonances plus a broadband floor. */
ResonanceCurve
dpiP2Curve(const ResonanceCurve& remote)
{
    ResonanceCurve curve = remote;
    curve.broadbandGain = 0.25;
    return curve;
}

DeviceProfile
makeDevice(const std::string& name, bool has_comp,
           const ResonanceCurve& adc_remote,
           const ResonanceCurve& comp_remote, int adc_bits,
           double adc_sample_hz, double comp_check_hz, double clock_hz)
{
    DeviceProfile dev;
    dev.name = name;
    dev.hasComparatorMonitor = has_comp;
    dev.adcBits = adc_bits;
    dev.adcSampleHz = adc_sample_hz;
    dev.compCheckHz = comp_check_hz;
    dev.adcRemote = adc_remote;
    dev.compRemote = comp_remote;
    dev.dpiP1 = dpiP1Curve(adc_remote);
    dev.dpiP2 = dpiP2Curve(adc_remote);
    dev.power.clockHz = clock_hz;
    return dev;
}

std::vector<DeviceProfile>
buildDb()
{
    std::vector<DeviceProfile> db;

    // MSP430 family: 27 MHz ADC-path resonance (Table I).  Gains are
    // calibrated so a 35 dBm remote attack at 5 m induces ~1.3 V at the
    // resonance — enough to control both thresholds.
    db.push_back(makeDevice("MSP430FR2311", false,
                            peakCurve(27, 10, 0.52), {}, 10, 64e3, 0,
                            8e6));
    db.push_back(makeDevice("MSP430FR2433", false,
                            peakCurve(27, 11, 0.50), {}, 10, 80e3, 0,
                            8e6));
    db.push_back(makeDevice("MSP430FR4133", false,
                            peakCurve(28, 10, 0.51), {}, 10, 72e3, 0,
                            8e6));
    {
        // F5529: main response at 27 MHz, additional 16 MHz peak where
        // the paper saw the maximum checkpoint-failure rate.
        ResonanceCurve c = peakCurve(27, 10, 0.48);
        c.peaks.push_back({16e6, 9, 0.52});
        db.push_back(makeDevice("MSP430F5529", false, c, {}, 12, 96e3, 0,
                                8e6));
    }
    db.push_back(makeDevice("MSP430FR5739", false,
                            peakCurve(27, 14, 0.56), {}, 10, 200e3, 0,
                            8e6));
    {
        // FR5994 (the main evaluation board): ADC path at 27 MHz;
        // comparator path resonating at 5 and 6 MHz.
        ResonanceCurve comp;
        comp.peaks.push_back({5e6, 16, 0.55});
        comp.lowPassHz = 55e6;
        comp.peaks.push_back({6e6, 16, 0.52});
        db.push_back(makeDevice("MSP430FR5994", true,
                                peakCurve(27, 11, 0.50), comp, 12, 100e3,
                                2e6, 8e6));
    }
    db.push_back(makeDevice("MSP430FR6989", true,
                            peakCurve(27, 11, 0.50),
                            peakCurve(27, 13, 0.50), 12, 90e3, 1.5e6,
                            8e6));
    db.push_back(makeDevice("MSP432P", true,
                            peakCurve(27, 9, 0.50),
                            peakCurve(27, 9, 0.04), 14, 120e3, 2e6,
                            48e6));
    {
        // STM32L552: cortex-m33, resonance at 17-18 MHz.
        ResonanceCurve c = peakCurve(17, 9, 0.52);
        c.peaks.push_back({18e6, 10, 0.45});
        db.push_back(makeDevice("STM32L552ZE", true, c,
                                peakCurve(17, 10, 0.05), 12, 150e3, 2e6,
                                48e6));
    }
    return db;
}

}  // namespace

const std::vector<DeviceProfile>&
DeviceDb::all()
{
    static const std::vector<DeviceProfile> db = buildDb();
    return db;
}

const DeviceProfile&
DeviceDb::byName(const std::string& name)
{
    for (const DeviceProfile& dev : all())
        if (dev.name == name)
            return dev;
    throw std::out_of_range("unknown device: " + name);
}

const DeviceProfile&
DeviceDb::msp430fr5994()
{
    return byName("MSP430FR5994");
}

}  // namespace gecko::device
