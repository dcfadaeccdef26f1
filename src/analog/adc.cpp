#include "analog/adc.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace gecko::analog {

Adc::Adc(int bits, double fullScaleV)
    : bits_(bits), fullScaleV_(fullScaleV),
      maxCode_((1u << bits) - 1u)
{
}

std::uint32_t
Adc::sample(double v) const
{
    if (v <= 0.0)
        return 0;
    double code = std::floor(v / fullScaleV_ * (maxCode_ + 1u));
    if (code >= maxCode_)
        return maxCode_;
    return static_cast<std::uint32_t>(code);
}

double
Adc::edge(std::uint32_t code) const
{
    if (code == 0)
        return -std::numeric_limits<double>::infinity();
    // Every input ≤ 0 has code 0, and positive doubles order like their
    // bit patterns: bisect those between +0 (code 0) and the largest
    // double (maxCode).
    std::uint64_t lo = std::bit_cast<std::uint64_t>(0.0);
    std::uint64_t hi =
        std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max());
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (sample(std::bit_cast<double>(mid)) >= code)
            hi = mid;
        else
            lo = mid;
    }
    return std::bit_cast<double>(hi);
}

double
Adc::toVoltage(std::uint32_t code) const
{
    code = std::min(code, maxCode_);
    return static_cast<double>(code) * fullScaleV_ /
           static_cast<double>(maxCode_ + 1u);
}

}  // namespace gecko::analog
