#include "energy/capacitor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "campaign/archive.hpp"
#include "trace/trace.hpp"

namespace gecko::energy {

namespace {

[[maybe_unused]] std::uint64_t
traceMv(double v)
{
    return v > 0 ? static_cast<std::uint64_t>(std::llround(v * 1000.0)) : 0;
}

}  // namespace

Capacitor::Capacitor(const CapacitorConfig& config) : config_(config)
{
    setVoltage(config.initialV);
}

/**
 * Whether a step's threshold crossings are traced: tested here, inline,
 * so the slow path's charge and leak steps never leave the function
 * just to find no trace buffer installed.
 */
inline bool
Capacitor::tracingCrossings() const
{
    return watching_ && trace::current() != nullptr;
}

void
Capacitor::commitCharge(const ChargePlan& p)
{
    const double prevE = energyJ_;
    energyJ_ =
        chargedEnergy(energyJ_, p, config_.capacitanceF, config_.maxV);
    if (tracingCrossings())
        traceCrossings(prevE, energyJ_);
}

void
Capacitor::chargeFrom(double vOc, double rSeries, double dt)
{
    noteOutage(vOc);
    commitCharge(chargePlan(vOc, rSeries, dt));
}

void
Capacitor::leak(double dt)
{
    commitCharge(
        planCharge(0.0, std::numeric_limits<double>::infinity(), dt));
}

double
Capacitor::timeToReach(double targetV, double vOc, double rSeries) const
{
    const double c = config_.capacitanceF;
    const double a = 1.0 / (rSeries * c) + config_.leakageS / c;
    const double v_inf = (vOc / (rSeries * c)) / a;
    const double v0 = voltage();
    if (targetV <= v0)
        return 0.0;
    if (targetV >= v_inf)
        return -1.0;
    return std::log((v_inf - v0) / (v_inf - targetV)) / a;
}

double
Capacitor::ceilingEnergy(double v) const
{
    const auto volts = [this](double e) {
        return std::sqrt(2.0 * e / config_.capacitanceF);
    };
    // Non-negative doubles order like their bit patterns: bisect those
    // between an energy at or below the ceiling (0) and one above it
    // (the energy at about 2v).
    std::uint64_t lo = std::bit_cast<std::uint64_t>(0.0);
    std::uint64_t hi = std::bit_cast<std::uint64_t>(
        0.5 * config_.capacitanceF * (4.0 * v * v + 1.0));
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (volts(std::bit_cast<double>(mid)) > v)
            hi = mid;
        else
            lo = mid;
    }
    return std::bit_cast<double>(lo);
}

void
Capacitor::watchThresholds(double vOff, double vBackup, double vOn)
{
    watching_ = true;
    thresholds_[0] = vOff;
    thresholds_[1] = vBackup;
    thresholds_[2] = vOn;
    // Precompute ½CV² per threshold so crossings compare against the
    // stored energy directly — no sqrt on the hot discharge path.
    for (int i = 0; i < 3; ++i)
        thresholdsE_[i] = 0.5 * config_.capacitanceF * thresholds_[i] *
                          thresholds_[i];
}

void
Capacitor::traceCrossings(double prevE, double newE)
{
    if (!watching_ || prevE == newE || trace::current() == nullptr)
        return;
    for (int i = 0; i < 3; ++i) {
        const double thrE = thresholdsE_[i];
        if (prevE < thrE && newE >= thrE) {
            GECKO_TRACE_EVENT(trace::EventKind::kThresholdCross,
                              trace::kFlagUp, static_cast<std::uint64_t>(i),
                              traceMv(thresholds_[i]));
        } else if (prevE > thrE && newE <= thrE) {
            GECKO_TRACE_EVENT(trace::EventKind::kThresholdCross,
                              trace::kFlagDown,
                              static_cast<std::uint64_t>(i),
                              traceMv(thresholds_[i]));
        }
    }
}

void
Capacitor::traceOutage(double vOc)
{
    const bool dark = vOc < kOutageVocV;
    outage_ = dark;
    if (dark) {
        GECKO_TRACE_EVENT(trace::EventKind::kOutageStart, 0, traceMv(vOc),
                          0);
    } else {
        GECKO_TRACE_EVENT(trace::EventKind::kOutageEnd, 0, traceMv(vOc), 0);
    }
}

double
bufferedEnergy(double c, double vHi, double vLo)
{
    return 0.5 * c * (vHi * vHi - vLo * vLo);
}

void
Capacitor::archiveState(campaign::Archive& ar)
{
    ar.section("capacitor");
    ar.f64(energyJ_);
    ar.boolean(outage_);
}

}  // namespace gecko::energy
