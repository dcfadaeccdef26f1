#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "device/device_db.hpp"

namespace gecko {
namespace {

using attack::AttackSchedule;
using attack::DpiPoint;
using attack::DpiRig;
using attack::EmiSource;
using attack::RemoteRig;
using device::DeviceDb;

TEST(DeviceDbTest, HasAllNineTableOneBoards)
{
    EXPECT_EQ(DeviceDb::all().size(), 9u);
    const char* names[] = {
        "MSP430FR2311", "MSP430FR2433", "MSP430FR4133",
        "MSP430F5529",  "MSP430FR5739", "MSP430FR5994",
        "MSP430FR6989", "MSP432P",      "STM32L552ZE",
    };
    for (const char* n : names)
        EXPECT_NO_THROW(DeviceDb::byName(n));
    EXPECT_THROW(DeviceDb::byName("ATmega328"), std::out_of_range);
}

TEST(DeviceDbTest, MonitorInventoryMatchesTableOne)
{
    EXPECT_FALSE(DeviceDb::byName("MSP430FR2311").hasComparatorMonitor);
    EXPECT_TRUE(DeviceDb::byName("MSP430FR5994").hasComparatorMonitor);
    EXPECT_TRUE(DeviceDb::byName("MSP430FR6989").hasComparatorMonitor);
    EXPECT_TRUE(DeviceDb::byName("STM32L552ZE").hasComparatorMonitor);
}

TEST(DeviceDbTest, Msp430FamilyResonatesNear27MHz)
{
    for (const auto& dev : DeviceDb::all()) {
        if (dev.name.rfind("MSP430", 0) != 0)
            continue;
        double g27 = dev.adcRemote.gainAt(27e6);
        double g120 = dev.adcRemote.gainAt(120e6);
        EXPECT_GT(g27, 5 * g120) << dev.name;
    }
    // The STM32 resonates near 17 MHz instead.
    const auto& stm = DeviceDb::byName("STM32L552ZE");
    EXPECT_GT(stm.adcRemote.gainAt(17e6), stm.adcRemote.gainAt(27e6));
}

TEST(DeviceDbTest, Fr5994ComparatorPathResonatesAt5And6MHz)
{
    const auto& dev = DeviceDb::msp430fr5994();
    double g5 = dev.compRemote.gainAt(5e6);
    double g6 = dev.compRemote.gainAt(6e6);
    double g27 = dev.compRemote.gainAt(27e6);
    EXPECT_GT(g5, g27);
    EXPECT_GT(g6, g27);
}

TEST(DeviceDbTest, MonitorsInstantiable)
{
    const auto& dev = DeviceDb::msp430fr5994();
    auto adc = dev.makeMonitor(analog::MonitorKind::kAdc, dev.vBackup,
                               dev.vOn);
    auto comp = dev.makeMonitor(analog::MonitorKind::kComparator,
                                dev.vBackup, dev.vOn);
    ASSERT_NE(adc, nullptr);
    ASSERT_NE(comp, nullptr);
    EXPECT_LT(comp->sampleIntervalS(), adc->sampleIntervalS());
}

TEST(RigTest, P2CouplesWiderThanP1)
{
    const auto& dev = DeviceDb::msp430fr5994();
    DpiRig p1(dev, DpiPoint::kP1);
    DpiRig p2(dev, DpiPoint::kP2);
    // Off the resonance, P2's broadband floor still couples.
    double off_p1 = p1.amplitude(10e6, 20.0);
    double off_p2 = p2.amplitude(10e6, 20.0);
    EXPECT_GT(off_p2, 2 * off_p1);
}

TEST(RigTest, RemoteAmplitudeDropsWithDistance)
{
    const auto& dev = DeviceDb::msp430fr5994();
    RemoteRig near(dev, analog::MonitorKind::kAdc, 0.5);
    RemoteRig far(dev, analog::MonitorKind::kAdc, 5.0);
    EXPECT_GT(near.amplitude(27e6, 35.0), far.amplitude(27e6, 35.0));
}

TEST(EmiSourceTest, ToneAndEnable)
{
    const auto& dev = DeviceDb::msp430fr5994();
    RemoteRig rig(dev, analog::MonitorKind::kAdc, 5.0);
    EmiSource src(rig, 27e6, 35.0);
    EXPECT_GT(src.amplitude(), 0.0);

    // Sine at t = period/4 is (nearly — ppm clock skew) the peak.
    double quarter = 0.25 / 27e6;
    EXPECT_NEAR(src.voltageAt(quarter), src.amplitude(),
                1e-6 * src.amplitude());
    EXPECT_NEAR(src.voltageAt(0.0), 0.0, 1e-6);

    src.setEnabled(false);
    EXPECT_EQ(src.voltageAt(quarter), 0.0);
    EXPECT_EQ(src.amplitude(), 0.0);

    src.setEnabled(true);
    src.setTone(120e6, 35.0);
    EXPECT_LT(src.amplitude(), 0.05);  // off resonance
}

TEST(AttackScheduleTest, WindowsActivate)
{
    AttackSchedule sched({{1.0, 2.0, 27e6, 35.0}, {5.0, 6.0, 17e6, 20.0}});
    EXPECT_FALSE(sched.activeAt(0.5).has_value());
    ASSERT_TRUE(sched.activeAt(1.5).has_value());
    EXPECT_EQ(sched.activeAt(1.5)->freqHz, 27e6);
    EXPECT_FALSE(sched.activeAt(2.0).has_value());  // half-open
    EXPECT_EQ(sched.activeAt(5.5)->powerDbm, 20.0);
}

TEST(AttackScheduleTest, NextStartBoundsTheActiveWindow)
{
    // The simulator's burst horizon ends by min(active window's end,
    // nextStartAfter(t0)).  That bound must be sound — activeAt returns
    // the same window (or none) at every t in [t0, bound) — and, for
    // disjoint windows, tight: a span past it sees a change.  Brute-
    // forced on a fine grid; the overlapping schedule also exercises
    // activeAt's first-added tie-break (a later-starting window added
    // earlier takes over at its start).
    const AttackSchedule overlapping({{2.0, 3.0, 5e6, 30.0},
                                      {1.0, 6.0, 27e6, 35.0},
                                      {4.0, 5.0, 17e6, 20.0},
                                      {7.0, 8.0, 27e6, 35.0}});
    const AttackSchedule disjoint({{5.0, 6.0, 17e6, 20.0},
                                   {1.0, 2.5, 27e6, 35.0},
                                   {7.0, 8.0, 5e6, 30.0}});
    for (const AttackSchedule* sched : {&overlapping, &disjoint}) {
        const auto sameAt = [sched](double t0, double t1) {
            const auto first = sched->activeAt(t0);
            for (double t = t0; t < t1; t += 1.0 / 64) {
                const auto w = sched->activeAt(t);
                if (w.has_value() != first.has_value() ||
                    (w && (w->startS != first->startS ||
                           w->endS != first->endS)))
                    return false;
            }
            return true;
        };
        for (double t0 = 0.0; t0 < 9.0; t0 += 0.25) {
            const auto active = sched->activeAt(t0);
            const double bound =
                std::min(sched->nextStartAfter(t0),
                         active ? active->endS
                                : std::numeric_limits<double>::infinity());
            for (double len : {0.25, 0.5, 1.0, 2.5}) {
                const std::string span = "[" + std::to_string(t0) + ", " +
                                         std::to_string(t0 + len) + ")";
                if (t0 + len <= bound) {
                    EXPECT_TRUE(sameAt(t0, t0 + len)) << span;
                } else if (sched == &disjoint) {
                    EXPECT_FALSE(sameAt(t0, t0 + len)) << span;
                }
            }
        }
    }
    EXPECT_EQ(overlapping.nextStartAfter(0.0), 1.0);
    EXPECT_EQ(overlapping.nextStartAfter(1.0), 2.0);  // strictly after
    EXPECT_EQ(overlapping.nextStartAfter(2.5), 4.0);
    EXPECT_EQ(overlapping.nextStartAfter(7.0),
              std::numeric_limits<double>::infinity());
}

TEST(AttackScheduleTest, PaperScenarios)
{
    // Scenario (a): no attack.
    EXPECT_TRUE(AttackSchedule::scenario('a', 1.0).windows().empty());
    // Scenario (f): attacks at minutes 10, 25, 40.
    AttackSchedule f = AttackSchedule::scenario('f', 2.0, 5.0);
    ASSERT_EQ(f.windows().size(), 3u);
    EXPECT_DOUBLE_EQ(f.windows()[0].startS, 20.0);
    EXPECT_DOUBLE_EQ(f.windows()[0].endS, 30.0);
    EXPECT_DOUBLE_EQ(f.windows()[2].startS, 80.0);
    EXPECT_THROW(AttackSchedule::scenario('z', 1.0), std::invalid_argument);
    EXPECT_EQ(AttackSchedule::scenarioDescription('a'), "no attack");
    EXPECT_NE(AttackSchedule::scenarioDescription('d').find("20"),
              std::string::npos);
}

}  // namespace
}  // namespace gecko
