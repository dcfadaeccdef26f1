#include "analog/voltage_monitor.hpp"

#include "campaign/archive.hpp"

namespace gecko::analog {

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
    : sampleHz_(sampleHz)
{
    const Adc adc(adcBits, fullScaleV);
    backupEdgeV_ = adc.edge(adc.sample(vBackup));
    wakeEdgeV_ = adc.edge(adc.sample(vWake));
}

void
AdcMonitor::reset(double v)
{
    belowBackup_ = !(v >= backupEdgeV_);
    aboveWake_ = v >= wakeEdgeV_;
}

ComparatorMonitor::ComparatorMonitor(double vBackup, double vWake,
                                     double hysteresisV, double checkHz)
    : backupComp_(vBackup, hysteresisV, /*initialHigh=*/true),
      wakeComp_(vWake, hysteresisV, /*initialHigh=*/true),
      checkHz_(checkHz)
{
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
