#include "device/device_profile.hpp"

namespace gecko::device {

std::unique_ptr<analog::VoltageMonitor>
DeviceProfile::makeMonitor(analog::MonitorKind kind, double vBackupV,
                           double vOnV) const
{
    if (kind == analog::MonitorKind::kAdc) {
        return std::make_unique<analog::AdcMonitor>(
            adcBits, vccNominal, vBackupV, vOnV, adcSampleHz);
    }
    return std::make_unique<analog::ComparatorMonitor>(
        vBackupV, vOnV, compHysteresisV, compCheckHz);
}

}  // namespace gecko::device
