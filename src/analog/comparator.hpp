#ifndef GECKO_ANALOG_COMPARATOR_HPP_
#define GECKO_ANALOG_COMPARATOR_HPP_

/**
 * @file
 * Voltage comparator used by comparator-based monitors (paper §II-C,
 * Fig. 2b): a 1-bit ADC with hysteresis around the reference.
 */

namespace gecko::analog {

/**
 * Comparator with symmetric hysteresis.
 *
 * Output is high while the + input exceeds the reference; transitions
 * require crossing ref ± hysteresis/2 so noise near the threshold does
 * not chatter.
 */
class Comparator
{
  public:
    /**
     * @param referenceV  threshold at the − input
     * @param hysteresisV total hysteresis band width
     * @param initialHigh initial output state
     */
    Comparator(double referenceV, double hysteresisV, bool initialHigh)
        : referenceV_(referenceV), halfBand_(hysteresisV / 2.0),
          high_(initialHigh)
    {
    }

    /**
     * Evaluate the comparator for input voltage `v`: a high output
     * falls below ref − hysteresis/2, a low one rises above
     * ref + hysteresis/2.  Inline: burst certificates evaluate copies.
     */
    bool evaluate(double v)
    {
        if (high_) {
            if (v < referenceV_ - halfBand_)
                high_ = false;
        } else {
            if (v > referenceV_ + halfBand_)
                high_ = true;
        }
        return high_;
    }

    /** Current output without re-evaluating. */
    bool output() const { return high_; }

    void reset(bool high) { high_ = high; }

    double reference() const { return referenceV_; }

  private:
    double referenceV_;
    double halfBand_;
    bool high_;
};

}  // namespace gecko::analog

#endif  // GECKO_ANALOG_COMPARATOR_HPP_
