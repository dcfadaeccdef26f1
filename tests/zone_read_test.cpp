#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analog/adc.hpp"
#include "analog/voltage_monitor.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "device/device_db.hpp"
#include "exp/parallel.hpp"

/**
 * @file
 * Oracles for the zone read (DESIGN.md §14 "Zone reads"): the
 * libm-free sine kernel against glibc's `sin` over every tone phase the
 * figures and perfbench reach, and the zone read of each ADC board's
 * threshold codes at readings that lie within a few ulps of the code
 * edge, where only glibc's read can decide.
 */

namespace gecko {
namespace {

using attack::boundedSin;
using attack::kBoundedSinMaxX;
using attack::kZoneDelta;

/** How one slice of kernel arguments is drawn. */
enum class Draw {
    /// EmiSource::phaseAt over a tone frequency and the run's horizon.
    kTonePhase,
    /// Uniform over the kernel's whole domain, either sign.
    kDomain,
    /// Within a few thousand ulps of a multiple of π/2 (r near 0).
    kNearQuadrant,
};

struct Slice {
    Draw draw;
    std::uint64_t seed;
    double freqHz;  ///< kTonePhase only
};

struct SliceResult {
    double maxError = 0.0;
    double worstX = 0.0;
    std::uint64_t differing = 0;  ///< kernel ≠ glibc, bit for bit
    std::uint64_t missing = 0;    ///< inside the domain, yet nullopt
};

constexpr std::uint64_t kPerSlice = 1'600'000;
/// The longest tone any figure or perfbench keys, with margin (s).
constexpr double kHorizonS = 20.0;

SliceResult
runSlice(const Slice& slice)
{
    static const device::DeviceProfile& dev =
        device::DeviceDb::msp430fr5994();
    static const attack::DpiRig rig(dev, attack::DpiPoint::kP2);
    const attack::EmiSource source(rig, slice.freqHz, 30.0);
    const double horizon = std::min(
        kHorizonS, kBoundedSinMaxX / (2.0 * M_PI * slice.freqHz * 1.001));
    std::mt19937_64 rng(slice.seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> ulps(-4096, 4096);

    SliceResult r;
    for (std::uint64_t i = 0; i < kPerSlice; ++i) {
        double x = 0.0;
        switch (slice.draw) {
          case Draw::kTonePhase:
            x = source.phaseAt(horizon * unit(rng));
            break;
          case Draw::kDomain:
            x = kBoundedSinMaxX * (2.0 * unit(rng) - 1.0);
            break;
          case Draw::kNearQuadrant: {
            const double k = std::floor(unit(rng) * kBoundedSinMaxX * 2.0 /
                                        M_PI);
            // Step the positive double k·π/2 by whole ulps.
            x = std::bit_cast<double>(std::bit_cast<std::int64_t>(
                                          std::max(k * (M_PI / 2.0), 1.0)) +
                                      ulps(rng));
            if (x > kBoundedSinMaxX)
                continue;
            break;
          }
        }
        const std::optional<double> s = boundedSin(x);
        if (!s) {
            ++r.missing;
            continue;
        }
        const double glibc = std::sin(x);
        const double err = std::abs(*s - glibc);
        r.differing += *s != glibc ? 1 : 0;
        if (err > r.maxError) {
            r.maxError = err;
            r.worstX = x;
        }
    }
    return r;
}

TEST(BoundedSinTest, TracksGlibcOverEveryToneAndTheWholeDomain)
{
    // Tone frequencies: the figures' resonances (MSP430 ADC path 27–28
    // MHz and F5529's 16 MHz, FR5994 comparator 5–6 MHz, STM32L552
    // 17–18 MHz), their sweep points, and a log grid over fig04's
    // 1 MHz – 1 GHz DPI sweep.
    std::vector<double> freqs = {1e6,  2e6,  3e6,  5e6,  6e6,   16e6,
                                 17e6, 18e6, 20e6, 27e6, 28e6,  40e6,
                                 50e6, 60e6, 100e6, 120e6, 500e6, 1e9};
    for (int i = 0; i <= 30; ++i)
        freqs.push_back(1e6 * std::pow(1000.0, i / 30.0));
    std::vector<Slice> slices;
    std::uint64_t seed = 1;
    for (double f : freqs)
        slices.push_back({Draw::kTonePhase, seed++, f});
    for (int i = 0; i < 8; ++i)
        slices.push_back({Draw::kDomain, seed++, 1e6});
    for (int i = 0; i < 8; ++i)
        slices.push_back({Draw::kNearQuadrant, seed++, 1e6});
    ASSERT_GE(slices.size() * kPerSlice, 100'000'000u);

    const std::vector<SliceResult> results =
        exp::parallelMap(slices, runSlice);
    SliceResult total;
    for (const SliceResult& r : results) {
        total.differing += r.differing;
        total.missing += r.missing;
        if (r.maxError >= total.maxError) {
            total.maxError = r.maxError;
            total.worstX = r.worstX;
        }
    }
    EXPECT_EQ(total.missing, 0u);
    // The contract the zone read rests on ...
    EXPECT_LE(total.maxError, kZoneDelta / 2);
    // ... and the bound DESIGN.md derives: reduction below 3e-16, the
    // series and its rounding a few ulps of 1, glibc within one ulp.
    EXPECT_LE(total.maxError, 1.1e-15)
        << "at x = " << total.worstX;
    std::cout << "[zone_read] " << slices.size() * kPerSlice
              << " arguments: max |kernel - glibc| = " << total.maxError
              << " at x = " << total.worstX << ", " << total.differing
              << " differ in the last bits\n";
}

TEST(BoundedSinTest, RefusesPastItsBound)
{
    EXPECT_TRUE(boundedSin(kBoundedSinMaxX).has_value());
    EXPECT_TRUE(boundedSin(-kBoundedSinMaxX).has_value());
    EXPECT_FALSE(boundedSin(std::nextafter(kBoundedSinMaxX, 1e300)));
    EXPECT_FALSE(boundedSin(-1e10));
    EXPECT_FALSE(boundedSin(std::numeric_limits<double>::infinity()));
    EXPECT_FALSE(boundedSin(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_EQ(*boundedSin(0.0), 0.0);
}

/** Phases where the kernel's sine differs from glibc's in the last bits. */
std::vector<double>
differingPhases(std::size_t n)
{
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> domain(0.0, kBoundedSinMaxX);
    std::vector<double> xs;
    while (xs.size() < n) {
        const double x = domain(rng);
        // Readings near a code edge need |sin x| small enough that
        // v = edge − a·sin x stays a rail voltage.
        if (*boundedSin(x) != std::sin(x) && std::abs(std::sin(x)) < 0.2)
            xs.push_back(x);
    }
    return xs;
}

TEST(ZoneReadTest, MatchesGlibcReadAtEveryAdcBoardsCodeEdges)
{
    // Readings v + a·sin x built so glibc's lies within a few ulps of a
    // threshold code's edge, or within a few a·δ of it, for every ADC
    // board, at the tone amplitudes of fig05 (tens of mV) and of the
    // attack_sweep points (volts), from each latch state.  The zone read
    // must raise glibc's event and leave glibc's latches; at the edge
    // only glibc can decide, so it must fall back there.
    const std::vector<double> phases = differingPhases(64);
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> domain(0.0, kBoundedSinMaxX);
    std::vector<double> xs = phases;
    while (xs.size() < 2 * phases.size()) {
        const double x = domain(rng);
        if (std::abs(std::sin(x)) < 0.2)
            xs.push_back(x);
    }

    std::uint64_t reads = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t decided = 0;
    std::uint64_t kernelMisses = 0;
    std::uint64_t mismatches = 0;
    for (const device::DeviceProfile& dev : device::DeviceDb::all()) {
        const analog::Adc adc(dev.adcBits, dev.vccNominal);
        for (const double threshold : {dev.vBackup, dev.vOn}) {
            const double edge = adc.edge(adc.sample(threshold));
            ASSERT_EQ(adc.sample(edge), adc.sample(threshold)) << dev.name;
            const double ulp = std::nextafter(edge, 1e300) - edge;
            for (const double a : {0.05, 1.3, 8.0}) {
                std::vector<double> offsets;
                for (int u = -4; u <= 4; ++u)
                    offsets.push_back(u * ulp);
                for (int m = -6; m <= 6; ++m)
                    offsets.push_back(m * 0.5 * a * kZoneDelta);
                for (const double x : xs) {
                    const double s = std::sin(x);
                    for (const double offset : offsets) {
                        const double v = (edge + offset) - a * s;
                        const double read = attack::pointRead(v, a, s);
                        const bool kernelMiss =
                            adc.sample(read) !=
                            adc.sample(attack::pointRead(v, a,
                                                         *boundedSin(x)));
                        for (const double rail : {1.0, 2.5, 3.3}) {
                            analog::AdcMonitor glibc(
                                dev.adcBits, dev.vccNominal, dev.vBackup,
                                dev.vOn, dev.adcSampleHz);
                            glibc.reset(rail);
                            analog::AdcMonitor zone = glibc;
                            const analog::MonitorEvent want =
                                glibc.observe(read);
                            const auto [got, sinRan] =
                                attack::observePointRead(zone, v, a, x);
                            ++reads;
                            (sinRan ? fallbacks : decided) += 1;
                            kernelMisses += kernelMiss ? 1 : 0;
                            if (got != want ||
                                zone.latches() != glibc.latches()) {
                                ++mismatches;
                                ADD_FAILURE()
                                    << dev.name << " edge " << edge
                                    << " a=" << a << " x=" << x
                                    << " v=" << v << " rail=" << rail;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // Preconditions: the edge is exercised both ways, and the kernel's
    // own read lands in another code than glibc's for some of these
    // readings (a zone read without its δ margin would pick that code).
    EXPECT_GT(fallbacks, 0u);
    EXPECT_GT(decided, 0u);
    EXPECT_GT(kernelMisses, 0u);
    std::cout << "[zone_read] " << reads << " edge reads: " << decided
              << " decided by the zone, " << fallbacks
              << " by glibc sin; the kernel's own read misses the code in "
              << kernelMisses << "\n";
}

}  // namespace
}  // namespace gecko
