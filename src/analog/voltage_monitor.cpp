#include "analog/voltage_monitor.hpp"

#include "campaign/archive.hpp"

namespace gecko::analog {

MonitorEvent
VoltageMonitor::observeEnvelope(double low, double high)
{
    MonitorEvent trough = observe(low);
    MonitorEvent crest = observe(high);
    MonitorEvent ev;
    ev.backup = trough.backup || crest.backup;
    ev.wake = trough.wake || crest.wake;
    return ev;
}

const char*
monitorKindName(MonitorKind kind)
{
    switch (kind) {
      case MonitorKind::kAdc: return "ADC";
      case MonitorKind::kComparator: return "Comp";
    }
    return "?";
}

AdcMonitor::AdcMonitor(int adcBits, double fullScaleV, double vBackup,
                       double vWake, double sampleHz)
    : adc_(adcBits, fullScaleV), backupCode_(adc_.sample(vBackup)),
      wakeCode_(adc_.sample(vWake)), sampleHz_(sampleHz)
{
}

MonitorEvent
AdcMonitor::observe(double seenV)
{
    MonitorEvent ev;
    std::uint32_t code = adc_.sample(seenV);
    bool below = code < backupCode_;
    bool above = code >= wakeCode_;
    if (below && !belowBackup_)
        ev.backup = true;
    if (above && !aboveWake_)
        ev.wake = true;
    belowBackup_ = below;
    aboveWake_ = above;
    return ev;
}

std::optional<MonitorEvent>
AdcMonitor::steadyEvent(double lo, double hi, double amplitude) const
{
    if (!(amplitude >= 0.0) || lo > hi)
        return std::nullopt;
    // Bounded tone: a conversion under a tone of peak A lands at a
    // DCO-jittered carrier phase and reads RN(v + RN(A·sin x)).  With
    // |sin x| <= 1 the tone term rounds into [−A, A], so a rail in
    // [lo, hi] reads inside [RN(lo − A), RN(hi + A)] (A = 0: a plain
    // point sample).  The ADC transfer curve is monotone, so those two
    // reads bound every code the monitor could see.  Each latch must
    // keep its value for all of them; with both latches stable no edge
    // can fire and `observe` is a pure no-op.
    const double readLo = lo - amplitude;
    const double readHi = hi + amplitude;
    const bool belowStable = belowBackup_
                                 ? adc_.sample(readHi) < backupCode_
                                 : adc_.sample(readLo) >= backupCode_;
    const bool aboveStable = aboveWake_ ? adc_.sample(readLo) >= wakeCode_
                                        : adc_.sample(readHi) < wakeCode_;
    if (belowStable && aboveStable)
        return MonitorEvent{};
    return std::nullopt;
}

void
AdcMonitor::reset(double v)
{
    std::uint32_t code = adc_.sample(v);
    belowBackup_ = code < backupCode_;
    aboveWake_ = code >= wakeCode_;
}

ComparatorMonitor::ComparatorMonitor(double vBackup, double vWake,
                                     double hysteresisV, double checkHz)
    : backupComp_(vBackup, hysteresisV, /*initialHigh=*/true),
      wakeComp_(vWake, hysteresisV, /*initialHigh=*/true),
      checkHz_(checkHz)
{
}

MonitorEvent
ComparatorMonitor::observe(double seenV)
{
    MonitorEvent ev;
    bool backup_was = backupComp_.output();
    bool wake_was = wakeComp_.output();
    bool backup_now = backupComp_.evaluate(seenV);
    bool wake_now = wakeComp_.evaluate(seenV);
    if (backup_was && !backup_now)
        ev.backup = true;
    if (!wake_was && wake_now)
        ev.wake = true;
    return ev;
}

std::optional<MonitorEvent>
ComparatorMonitor::steadyEvent(double lo, double hi, double amplitude) const
{
    if (lo > hi)
        return std::nullopt;
    // Each window is observed trough (v − A) first, then crest (v + A).
    // Rounded v ± A is monotone in v, so the band's endpoints bound
    // every trough and crest in it.
    const double troughLo = lo - amplitude;
    const double troughHi = hi - amplitude;
    const double crestLo = lo + amplitude;
    const double crestHi = hi + amplitude;
    // Per comparator: 0 = output provably constant, 1 = provably falls
    // on every trough and rises again on the crest (a high output the
    // tone clears on both flanks), -1 = unknown.
    const auto classify = [&](const Comparator& c) {
        const double fall = c.reference() - c.halfBand();
        const double rise = c.reference() + c.halfBand();
        if (!c.output())
            return crestHi <= rise ? 0 : -1;
        if (troughLo >= fall)
            return 0;
        return troughHi < fall && crestLo > rise ? 1 : -1;
    };
    const int backup = classify(backupComp_);
    const int wake = classify(wakeComp_);
    if (backup < 0 || wake < 0)
        return std::nullopt;
    // A falling backup comparator is a backup edge; the wake comparator
    // rising back on the crest is a wake edge.
    return MonitorEvent{backup == 1, wake == 1};
}

void
ComparatorMonitor::reset(double v)
{
    backupComp_.reset(v >= backupComp_.reference());
    wakeComp_.reset(v >= wakeComp_.reference());
    // Settle hysteresis state.
    backupComp_.evaluate(v);
    wakeComp_.evaluate(v);
}

void
AdcMonitor::archiveState(campaign::Archive& ar)
{
    ar.section("adc_monitor");
    ar.boolean(belowBackup_);
    ar.boolean(aboveWake_);
}

void
ComparatorMonitor::archiveState(campaign::Archive& ar)
{
    ar.section("comparator_monitor");
    bool backupHigh = backupComp_.output();
    bool wakeHigh = wakeComp_.output();
    ar.boolean(backupHigh);
    ar.boolean(wakeHigh);
    if (!ar.saving()) {
        backupComp_.reset(backupHigh);
        wakeComp_.reset(wakeHigh);
    }
}

}  // namespace gecko::analog
