#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

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
    const analog::AdcMonitor adc(dev.adcBits, dev.vccNominal, dev.vBackup,
                                 dev.vOn, dev.adcSampleHz);
    const analog::ComparatorMonitor comp(dev.vBackup, dev.vOn,
                                         dev.compHysteresisV,
                                         dev.compCheckHz);
    EXPECT_LT(comp.sampleIntervalS(), adc.sampleIntervalS());
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

    // The phase at t = period/4 is (nearly — ppm clock skew) π/2.
    double quarter = 0.25 / 27e6;
    EXPECT_NEAR(std::sin(src.phaseAt(quarter)), 1.0, 1e-6);
    EXPECT_EQ(src.phaseAt(0.0), 0.0);

    src.setEnabled(false);
    EXPECT_EQ(src.amplitude(), 0.0);

    src.setEnabled(true);
    src.setTone(120e6, 35.0);
    EXPECT_LT(src.amplitude(), 0.05);  // off resonance
}

TEST(AttackScheduleTest, WindowsActivate)
{
    constexpr double kNever = std::numeric_limits<double>::infinity();
    AttackSchedule sched({{1.0, 2.0, 27e6, 35.0}, {5.0, 6.0, 17e6, 20.0}});
    EXPECT_EQ(sched.toneAt(0.5).window, nullptr);
    EXPECT_EQ(sched.toneAt(0.5).until, 1.0);
    ASSERT_NE(sched.toneAt(1.5).window, nullptr);
    EXPECT_EQ(sched.toneAt(1.5).window->freqHz, 27e6);
    EXPECT_EQ(sched.toneAt(1.5).until, 2.0);
    EXPECT_EQ(sched.toneAt(2.0).window, nullptr);  // half-open
    EXPECT_EQ(sched.toneAt(2.0).until, 5.0);
    ASSERT_NE(sched.toneAt(5.5).window, nullptr);
    EXPECT_EQ(sched.toneAt(5.5).window->powerDbm, 20.0);
    EXPECT_EQ(sched.toneAt(6.0).until, kNever);
    EXPECT_EQ(AttackSchedule().toneAt(0.0).window, nullptr);
    EXPECT_EQ(AttackSchedule().toneAt(0.0).until, kNever);
}

TEST(AttackScheduleTest, OverlapsFoldIntoTheFirstListedWindow)
{
    // {2, 3} is listed first, so it takes over inside {1, 6}; {4, 5} is
    // listed after {1, 6} and never plays.  The timeline keeps {1, 6}'s
    // tone constant over [3, 6), so a tone there holds until 6, past
    // {4, 5}'s start.
    const AttackSchedule sched({{2.0, 3.0, 5e6, 30.0},
                                {1.0, 6.0, 27e6, 35.0},
                                {4.0, 5.0, 17e6, 20.0},
                                {7.0, 8.0, 27e6, 35.0}});
    const double expected[][3] = {
        {1.0, 2.0, 27e6}, {2.0, 3.0, 5e6}, {3.0, 6.0, 27e6}, {7.0, 8.0, 27e6}};
    ASSERT_EQ(sched.windows().size(), std::size(expected));
    for (std::size_t i = 0; i < std::size(expected); ++i) {
        EXPECT_EQ(sched.windows()[i].startS, expected[i][0]) << i;
        EXPECT_EQ(sched.windows()[i].endS, expected[i][1]) << i;
        EXPECT_EQ(sched.windows()[i].freqHz, expected[i][2]) << i;
    }
    EXPECT_EQ(sched.toneAt(3.5).until, 6.0);
    EXPECT_EQ(sched.toneAt(6.5).until, 7.0);
}

TEST(AttackScheduleTest, EmptyWindowsAreRejected)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(AttackSchedule({{1.0, 1.0, 27e6, 35.0}}),
                 std::invalid_argument);
    EXPECT_THROW(AttackSchedule({{0.0, 1.0, 27e6, 35.0},
                                 {3.0, 2.0, 27e6, 35.0}}),
                 std::invalid_argument);
    EXPECT_THROW(AttackSchedule({{nan, 1.0, 27e6, 35.0}}),
                 std::invalid_argument);
}

/**
 * A random schedule of up to eight windows on a 1/16 s grid, each with
 * its own frequency.  An overlapping one starts its second window
 * inside its first; a disjoint one lays its windows end to end with
 * gaps (some zero) and lists them shuffled.
 */
std::vector<attack::AttackWindow>
randomWindows(std::mt19937_64& rng, bool overlapping)
{
    const int n = (overlapping ? 2 : 1) + static_cast<int>(rng() % 7);
    std::vector<attack::AttackWindow> windows;
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        const double len = static_cast<double>(1 + rng() % 32) / 16;
        double start = t + static_cast<double>(rng() % 4) / 16;
        if (overlapping)
            start = i == 1 ? (windows[0].startS + windows[0].endS) / 2
                           : static_cast<double>(rng() % 160) / 16;
        windows.push_back({start, start + len, 1e6 * (i + 1), 30.0});
        t = start + len;
    }
    if (!overlapping)
        std::shuffle(windows.begin(), windows.end(), rng);
    return windows;
}

TEST(AttackScheduleTest, ToneAtMatchesTheFirstListedWindowEverywhere)
{
    // Brute-force oracle: the first-listed window covering t (-1 = none).
    const auto oracle = [](const std::vector<attack::AttackWindow>& ws,
                           double t) {
        for (std::size_t i = 0; i < ws.size(); ++i)
            if (ws[i].startS <= t && t < ws[i].endS)
                return static_cast<int>(i);
        return -1;
    };
    int overlapped = 0;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        std::mt19937_64 rng(seed);
        const std::vector<attack::AttackWindow> ws =
            randomWindows(rng, seed % 2 == 0);
        const AttackSchedule sched(ws);
        // Every change of the oracle sits on a window edge, so the grid
        // of edges and 1/32 s steps sees all of them.
        std::vector<double> grid;
        for (int k = -8; k <= 18 * 32; ++k)
            grid.push_back(static_cast<double>(k) / 32);
        for (const attack::AttackWindow& w : ws) {
            grid.push_back(w.startS);
            grid.push_back(w.endS);
        }
        std::sort(grid.begin(), grid.end());
        overlapped += std::any_of(grid.begin(), grid.end(), [&](double t) {
            return std::count_if(ws.begin(), ws.end(), [t](const auto& w) {
                       return w.startS <= t && t < w.endS;
                   }) > 1;
        });

        for (std::size_t g = 0; g < grid.size(); ++g) {
            const double t = grid[g];
            const int on = oracle(ws, t);
            const AttackSchedule::Tone tone = sched.toneAt(t);
            const std::string where =
                "seed " + std::to_string(seed) + " t " + std::to_string(t);
            ASSERT_EQ(tone.window != nullptr, on >= 0) << where;
            if (on >= 0) {
                EXPECT_EQ(tone.window->freqHz, ws[on].freqHz) << where;
            }
            ASSERT_GT(tone.until, t) << where;
            for (std::size_t h = g; h < grid.size() && grid[h] < tone.until;
                 ++h)
                ASSERT_EQ(oracle(ws, grid[h]), on)
                    << where << " changes at " << grid[h];
            if (std::isinf(tone.until))
                continue;
            EXPECT_EQ(oracle(ws, std::nextafter(tone.until, t)), on)
                << where;
            // The timeline is tight: the tone changes at `until`.
            EXPECT_NE(oracle(ws, tone.until), on) << where;
        }
    }
    EXPECT_EQ(overlapped, 120);
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
