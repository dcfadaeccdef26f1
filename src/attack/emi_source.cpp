#include "attack/emi_source.hpp"

#include <array>
#include <cmath>

#include "campaign/archive.hpp"
#include "trace/trace.hpp"

namespace gecko::attack {

namespace {

/// π/2 in four parts of 22 significant bits each (Cody–Waite): k·P_i is
/// exact for every k < 2^31 without FMA.  They sum to π/2 within 3e-28.
constexpr double kPio2[] = {0x1.921fbp+0, 0x1.5110bp-22, 0x1.184698p-44,
                            0x1.3198ap-69};
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;

/// The Taylor coefficients (−1)^(i+1) / n! for n = first, first + 2, …
/// (eight of them, i = 0..7).
constexpr std::array<double, 8>
taylor(int first)
{
    std::array<double, 8> c{};
    double factorial = 1.0;
    for (int n = 2, i = 0; i < 8; ++n) {
        factorial *= n;
        if (n >= first && (n - first) % 2 == 0) {
            c[i] = (i % 2 == 0 ? -1.0 : 1.0) / factorial;
            ++i;
        }
    }
    return c;
}
/// sin r = r + r·z·S(z) through r^17 and cos r = 1 + z·C(z) through
/// r^16, z = r²: {S, C}.
constexpr std::array<std::array<double, 8>, 2> kSeries = {taylor(3),
                                                          taylor(2)};

/** Offset-encoded milli-dBm (+200 dBm bias keeps the payload unsigned). */
[[maybe_unused]] std::uint64_t
traceMilliDbm(double powerDbm)
{
    const double biased = (powerDbm + 200.0) * 1000.0;
    return biased > 0 ? static_cast<std::uint64_t>(std::llround(biased)) : 0;
}

}  // namespace

EmiSource::EmiSource(const InjectionRig& rig, double freqHz,
                     double powerDbm, double clockSkewPpm)
    : rig_(rig), freqHz_(freqHz), powerDbm_(powerDbm),
      amplitude_(rig.amplitude(freqHz, powerDbm)), skewPpm_(clockSkewPpm)
{
}

void
EmiSource::setEnabled(bool enabled)
{
    if (enabled == enabled_)
        return;
    enabled_ = enabled;
    if (enabled) {
        GECKO_TRACE_EVENT(trace::EventKind::kEmiOn, 0,
                          static_cast<std::uint64_t>(freqHz_),
                          traceMilliDbm(powerDbm_));
        if (hasGridTag_) {
            GECKO_TRACE_EVENT(trace::EventKind::kSpatialHit, 0, gridCell_,
                              gridCouplingMilli_);
        }
    } else {
        GECKO_TRACE_EVENT(trace::EventKind::kEmiOff, 0,
                          static_cast<std::uint64_t>(freqHz_),
                          traceMilliDbm(powerDbm_));
    }
}

void
EmiSource::setGridTag(std::uint64_t cell, std::uint64_t couplingMilli)
{
    hasGridTag_ = true;
    gridCell_ = cell;
    gridCouplingMilli_ = couplingMilli;
}

void
EmiSource::setTone(double freqHz, double powerDbm)
{
    freqHz_ = freqHz;
    powerDbm_ = powerDbm;
    amplitude_ = rig_.amplitude(freqHz, powerDbm);
}

std::optional<double>
boundedSin(double x)
{
    const double ax = x < 0.0 ? -x : x;
    if (!(ax <= kBoundedSinMaxX))
        return std::nullopt;
    // k = round(|x|·2/π) < 2^31 and each k·P_i is exact; |x| − k·P_1 is
    // exact too (Sterbenz), and each later difference is below 1 in
    // magnitude, so r = |x| − k·π/2 within 3·2^-54 + k·3e-28.
    const auto k = static_cast<std::int64_t>(ax * kTwoOverPi + 0.5);
    const double kd = static_cast<double>(k);
    const double r = (((ax - kd * kPio2[0]) - kd * kPio2[1]) -
                      kd * kPio2[2]) -
                     kd * kPio2[3];
    // |r| ≤ π/4 + 1e-6 (near a half-quadrant k may round to either
    // neighbour): the first omitted terms are below 1e-17.  Both
    // series read m + m·z·P(z), m being r or 1, so the quadrant — random
    // from read to read — indexes instead of branching.
    const double z = r * r;
    const std::array<double, 8>& c = kSeries[k & 1];
    double p = c[7];
    for (int i = 6; i >= 0; --i)
        p = c[i] + z * p;
    const double m[] = {r, 1.0};
    const double s = m[k & 1] + m[k & 1] * z * p;
    // Quadrants 2 and 3 negate, and so does a negative x.
    constexpr double kSign[] = {1.0, -1.0};
    return s * kSign[((k >> 1) ^ (x < 0.0 ? 1 : 0)) & 1];
}

void
EmiSource::archiveState(campaign::Archive& ar)
{
    ar.section("emi_source");
    // Fields restored directly: setEnabled/setTone trace edges, and a
    // restore is not an edge.
    ar.f64(freqHz_);
    ar.f64(powerDbm_);
    ar.f64(amplitude_);
    ar.boolean(enabled_);
    ar.boolean(hasGridTag_);
    ar.u64(gridCell_);
    ar.u64(gridCouplingMilli_);
}

}  // namespace gecko::attack
