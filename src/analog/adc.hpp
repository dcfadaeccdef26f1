#ifndef GECKO_ANALOG_ADC_HPP_
#define GECKO_ANALOG_ADC_HPP_

#include <cstdint>

/**
 * @file
 * Analog-to-digital converter used by ADC-based voltage monitors
 * (paper §II-C, Fig. 2a).
 */

namespace gecko::analog {

/** Successive-approximation ADC with a fixed full-scale reference. */
class Adc
{
  public:
    /**
     * @param bits      resolution (10 or 12 on the paper's MCUs)
     * @param fullScaleV input voltage mapping to the maximum code
     */
    Adc(int bits, double fullScaleV);

    /** Convert an input voltage to a code (clamped to the range). */
    std::uint32_t sample(double v) const;

    /**
     * The smallest input whose code is at least `code` (≤ maxCode()):
     * sample(v) ≥ code exactly when v ≥ edge(code), sample being
     * monotone in v.  −∞ for code 0.
     */
    double edge(std::uint32_t code) const;
    /** Convert a code back to the voltage at the code's lower edge. */
    double toVoltage(std::uint32_t code) const;

    /** Quantize a voltage: sample then convert back. */
    double quantize(double v) const { return toVoltage(sample(v)); }

    int bits() const { return bits_; }
    std::uint32_t maxCode() const { return maxCode_; }

  private:
    int bits_;
    double fullScaleV_;
    std::uint32_t maxCode_;
};

}  // namespace gecko::analog

#endif  // GECKO_ANALOG_ADC_HPP_
