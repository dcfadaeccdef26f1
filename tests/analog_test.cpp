#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "analog/adc.hpp"
#include "analog/comparator.hpp"
#include "analog/emi_coupling.hpp"
#include "analog/resonance.hpp"
#include "analog/voltage_monitor.hpp"
#include "campaign/archive.hpp"

namespace gecko::analog {
namespace {

TEST(AdcTest, QuantizationAndClamping)
{
    Adc adc(12, 3.3);
    EXPECT_EQ(adc.sample(0.0), 0u);
    EXPECT_EQ(adc.sample(-1.0), 0u);
    EXPECT_EQ(adc.sample(3.3), adc.maxCode());
    EXPECT_EQ(adc.sample(10.0), adc.maxCode());
    // Mid-scale code maps back near the input.
    double v = 1.65;
    EXPECT_NEAR(adc.quantize(v), v, 3.3 / 4096 + 1e-12);
    // Monotone.
    EXPECT_LE(adc.sample(1.0), adc.sample(1.1));
}

TEST(AdcTest, ResolutionMatters)
{
    Adc coarse(10, 3.3);
    Adc fine(12, 3.3);
    EXPECT_EQ(coarse.maxCode(), 1023u);
    EXPECT_EQ(fine.maxCode(), 4095u);
}

TEST(ComparatorTest, HysteresisPreventsChatter)
{
    Comparator comp(2.2, 0.1, true);
    EXPECT_TRUE(comp.evaluate(2.21));   // inside the band: holds
    EXPECT_TRUE(comp.evaluate(2.16));   // still inside
    EXPECT_FALSE(comp.evaluate(2.14));  // below band: trips low
    EXPECT_FALSE(comp.evaluate(2.24));  // inside: holds low
    EXPECT_TRUE(comp.evaluate(2.26));   // above band: trips high
}

TEST(ComparatorTest, ExactBandEdgeEqualityHoldsState)
{
    // Transitions are strict inequalities: landing *exactly* on
    // ref ± hysteresis/2 holds the current state.  EMI tones sampled at
    // a resonance null can park the seen voltage on the band edge for
    // many evaluations; equality must not flip the output.  Values are
    // binary-exact so there is no rounding slack in the comparison.
    Comparator comp(2.0, 0.5, true);
    EXPECT_TRUE(comp.evaluate(1.75));      // == ref - half: holds high
    EXPECT_TRUE(comp.evaluate(1.75));      // parked there: still holds
    EXPECT_FALSE(comp.evaluate(1.749999));  // strictly below: trips
    EXPECT_FALSE(comp.evaluate(2.25));     // == ref + half: holds low
    EXPECT_FALSE(comp.evaluate(2.25));
    EXPECT_TRUE(comp.evaluate(2.250001));  // strictly above: trips
}

TEST(ComparatorTest, ZeroHysteresisIsStableAtTheReference)
{
    // Degenerate zero-width band: both edges collapse onto the
    // reference.  Input exactly at the reference must hold state in
    // either direction (no chatter from equality), while any strict
    // crossing still trips.
    Comparator comp(2.0, 0.0, true);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(comp.evaluate(2.0));  // v == ref: holds high forever
    EXPECT_FALSE(comp.evaluate(1.999999));
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(comp.evaluate(2.0));  // and holds low symmetrically
    EXPECT_TRUE(comp.evaluate(2.000001));
    EXPECT_TRUE(comp.output());
}

TEST(VoltageMonitorTest, ComparatorMonitorZeroHysteresisEdges)
{
    // Regression: a zero-hysteresis monitor must still be edge-driven —
    // exact-threshold samples generate no backup/wake edge, strict
    // crossings exactly one.
    ComparatorMonitor mon(2.0, 3.0, 0.0, 2e6);
    mon.reset(3.3);
    EXPECT_FALSE(mon.observe(2.0).backup);  // parked on V_backup: none
    EXPECT_FALSE(mon.observe(2.0).backup);
    MonitorEvent ev = mon.observe(1.999999);
    EXPECT_TRUE(ev.backup);
    EXPECT_FALSE(mon.observe(1.9).backup);  // edge-triggered, no re-fire
    EXPECT_FALSE(mon.observe(3.0).wake);    // parked on V_wake: none...
    EXPECT_TRUE(mon.observe(3.000001).wake);  // ...strict cross fires
}

TEST(VoltageMonitorTest, AdcMonitorBackupEdge)
{
    AdcMonitor mon(12, 3.3, 2.2, 3.0, 100e3);
    mon.reset(3.3);
    EXPECT_FALSE(mon.observe(3.2).backup);
    MonitorEvent ev = mon.observe(2.1);
    EXPECT_TRUE(ev.backup);
    // Edge-triggered: staying below does not re-fire.
    EXPECT_FALSE(mon.observe(2.0).backup);
    // Rising above and dipping again re-fires.
    mon.observe(3.1);
    EXPECT_TRUE(mon.observe(2.1).backup);
}

TEST(VoltageMonitorTest, AdcMonitorWakeEdge)
{
    AdcMonitor mon(12, 3.3, 2.2, 3.0, 100e3);
    mon.reset(1.0);
    EXPECT_FALSE(mon.observe(2.9).wake);
    EXPECT_TRUE(mon.observe(3.05).wake);
    EXPECT_FALSE(mon.observe(3.2).wake);
}

TEST(VoltageMonitorTest, ComparatorMonitorEdges)
{
    ComparatorMonitor mon(2.2, 3.0, 0.02, 2e6);
    mon.reset(3.3);
    EXPECT_FALSE(mon.observe(3.2).backup);
    EXPECT_TRUE(mon.observe(2.1).backup);
    EXPECT_FALSE(mon.observe(2.0).backup);
    EXPECT_TRUE(mon.observe(3.1).wake);
}

/** The monitor's latches as archived bytes (thresholds are ctor state). */
template <class Monitor>
std::vector<std::uint8_t>
latches(Monitor& mon)
{
    campaign::Archive ar = campaign::Archive::saver();
    mon.archiveState(ar);
    return ar.takePayload();
}

TEST(SteadyEventTest, SaturatedComparatorRepeatsBackupAndWake)
{
    // Random rail bands and tone amplitudes: wherever the certificate
    // claims the storm fixed point, every window in the band — each
    // observed trough first, then crest, as the simulator does — must
    // trip exactly {backup, wake} and leave both outputs high.
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> rail(0.0, 3.6);
    std::uniform_real_distribution<double> width(0.0, 0.4);
    std::uniform_real_distribution<double> tone(0.0, 12.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    int certified = 0;
    for (int trial = 0; trial < 400; ++trial) {
        ComparatorMonitor mon(2.2, 3.0, 0.02, 2e6);
        mon.reset(3.3);
        const double lo = rail(rng);
        const double hi = lo + width(rng);
        const double amp = tone(rng);
        const std::vector<std::uint8_t> before = latches(mon);
        const auto ev = steadyEvent(mon, lo, hi, amp);
        if (!ev || !ev->backup || !ev->wake)
            continue;
        ++certified;
        for (int i = 0; i < 1000; ++i) {
            const double v = i == 0   ? lo
                             : i == 1 ? hi
                                      : lo + (hi - lo) * unit(rng);
            const MonitorEvent seen = observeEnvelope(mon, v - amp, v + amp);
            ASSERT_TRUE(seen.backup && seen.wake)
                << "band [" << lo << ", " << hi << "] A=" << amp
                << " v=" << v;
        }
        EXPECT_EQ(latches(mon), before) << "outputs moved";
    }
    EXPECT_GT(certified, 50);
}

TEST(SteadyEventTest, ComparatorRefusesTouchedFlanksAndLowOutputs)
{
    const MonitorEvent storm{true, true};
    const MonitorEvent quiet{};
    ComparatorMonitor mon(2.2, 3.0, 0.02, 2e6);
    mon.reset(3.3);
    const double fallB = 2.2 - 0.01;  // backup comparator's falling flank
    const double riseW = 3.0 + 0.01;  // wake comparator's rising flank
    // Saturated: every trough clears both falling flanks, every crest
    // both rising ones.
    const double amp = 1.5;
    ASSERT_TRUE(steadyEvent(mon, 2.0, 2.5, amp) == storm);
    // The band's top trough touches a falling flank (v − A ≥ ref −
    // hysteresis/2 somewhere inside it): that window may not fall.
    EXPECT_FALSE(steadyEvent(mon, 2.0, fallB + amp + 1e-9, amp));
    // The band's bottom crest stays at a rising flank (v + A ≤ ref +
    // hysteresis/2): that window may not rise again.
    EXPECT_FALSE(steadyEvent(mon, riseW - amp - 1e-9, 2.5, amp));
    // Entirely above both falling flanks: quiet, not saturated.
    EXPECT_TRUE(steadyEvent(mon, 3.05, 3.3, 0.03) == quiet);
    // An output that starts low changes on the first crest.
    mon.observe(0.0);  // both comparators fall
    EXPECT_FALSE(steadyEvent(mon, 2.0, 2.5, amp));
    // Low and provably staying low is quiet.
    EXPECT_TRUE(steadyEvent(mon, 0.5, 1.0, 0.1) == quiet);
}

TEST(SteadyEventTest, ComparatorCertificateMatchesBruteForce)
{
    // Random thresholds (in either order) and hysteresis, output states
    // reached through observe, bands and tone amplitudes.  The
    // certificate must hold exactly when every sampled rail of the
    // band, both ends included, gives the same event through
    // observeEnvelope(v − A, v + A) on a copy and ends in the starting
    // outputs — and then name that event.
    std::mt19937_64 rng(13);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto volts = [&](double lo, double hi) {
        return lo + (hi - lo) * unit(rng);
    };
    int states[4] = {};
    int certified = 0;
    int refused = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        ComparatorMonitor mon(volts(1.8, 3.2), volts(1.8, 3.2),
                              volts(0.0, 0.1), 2e6);
        mon.reset(3.6);
        for (int n = trial % 4; n > 0; --n)
            mon.observe(volts(0.0, 3.6));
        const auto start = mon.latches();
        ++states[2 * start.first + start.second];
        const double lo = volts(0.0, 3.6);
        const double hi = lo + (trial % 5 == 0 ? 0.0 : volts(0.0, 0.5));
        const double amp =
            trial % 7 == 0 ? 0.0 : volts(0.0, trial % 2 ? 0.3 : 2.0);
        std::optional<MonitorEvent> first;
        bool steady = true;
        for (int i = 0; i < 64 && steady; ++i) {
            const double v = i == 0 ? lo : i == 1 ? hi : volts(lo, hi);
            ComparatorMonitor copy = mon;
            const MonitorEvent ev = observeEnvelope(copy, v - amp, v + amp);
            first = first.value_or(ev);
            steady = ev == *first && copy.latches() == start;
        }
        const auto cert = steadyEvent(mon, lo, hi, amp);
        ASSERT_EQ(cert.has_value(), steady)
            << "band [" << lo << ", " << hi << "] A=" << amp
            << " outputs " << start.first << start.second;
        if (cert) {
            EXPECT_TRUE(*cert == *first);
        }
        ++(steady ? certified : refused);
    }
    for (int count : states)
        EXPECT_GT(count, 100);
    EXPECT_GT(certified, 300);
    EXPECT_GT(refused, 300);
}

TEST(SteadyEventTest, QuietBandsAndAdcUnderTone)
{
    AdcMonitor adc(12, 3.3, 2.2, 3.0, 100e3);
    adc.reset(2.6);
    const MonitorEvent quiet{};
    // Between the thresholds with no tone: every point read is a no-op.
    EXPECT_TRUE(steadyEvent(adc, 2.4, 2.8, 0.0) == quiet);
    // A band reaching the backup code is not steady.
    EXPECT_FALSE(steadyEvent(adc, 2.1, 2.8, 0.0));
    // A point sample under a tone lands at a random carrier phase, so
    // only the band widened by the tone's peak bounds it: a weak tone
    // certifies, one that reaches a threshold code does not.
    EXPECT_TRUE(steadyEvent(adc, 2.4, 2.8, 1e-3) == quiet);
    EXPECT_FALSE(steadyEvent(adc, 2.4, 2.8, 0.25));
    EXPECT_FALSE(steadyEvent(adc, 2.6, 2.6, 10.0));

    ComparatorMonitor comp(2.2, 3.0, 0.02, 2e6);
    comp.reset(2.6);  // backup high, wake low
    EXPECT_TRUE(steadyEvent(comp, 2.3, 2.9, 0.0) == quiet);
    EXPECT_FALSE(steadyEvent(comp, 2.0, 2.9, 0.0));
}

TEST(SteadyEventTest, BoundedToneCertificateMatchesBruteForce)
{
    // A point read under a tone of peak A is RN(v + RN(A·s)) with the
    // sine s in [−1, 1].  The ADC certificate must answer `{}` exactly
    // when every such read from a rail in [lo, hi] is a no-op (no event,
    // both latches kept), with bands on both sides of each code edge
    // and every latch state.  s = ±1 and the band ends reach the
    // extreme reads, so the brute force covers the boundary cases.
    const Adc adc(12, 3.3);
    const double edges[] = {adc.toVoltage(adc.sample(2.2)),
                            adc.toVoltage(adc.sample(3.0))};
    const double sines[] = {-1.0, std::nextafter(-1.0, 0.0), -0.5, 0.0,
                            0.5, std::nextafter(1.0, 0.0), 1.0};
    const MonitorEvent quiet{};
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    int certified = 0;
    int refused = 0;
    for (double railAtReset : {1.0, 2.6, 3.2}) {
        for (double edge : edges) {
            for (double amp : {0.0, 1e-4, 1e-3, 0.05, 0.3}) {
                for (double offset : {-2.0, -1.0, 0.0, 1.0, 2.0}) {
                    for (double nudge : {-1e-9, 0.0, 1e-9}) {
                        for (double width : {0.0, 1e-3}) {
                            AdcMonitor mon(12, 3.3, 2.2, 3.0, 100e3);
                            mon.reset(railAtReset);
                            const double hi = edge + offset * amp + nudge;
                            const double lo = hi - width;
                            bool allNoOp = true;
                            for (int i = 0; i < 3 && allNoOp; ++i) {
                                const double v =
                                    i == 0 ? lo
                                    : i == 1 ? hi
                                             : lo + (hi - lo) * unit(rng);
                                for (double sine : sines) {
                                    AdcMonitor copy = mon;
                                    const MonitorEvent ev =
                                        copy.observe(v + amp * sine);
                                    if (ev != quiet ||
                                        latches(copy) != latches(mon)) {
                                        allNoOp = false;
                                        break;
                                    }
                                }
                            }
                            const auto cert = steadyEvent(mon, lo, hi, amp);
                            EXPECT_EQ(cert.has_value() && *cert == quiet,
                                      allNoOp)
                                << "band [" << lo << ", " << hi
                                << "] A=" << amp << " reset " << railAtReset;
                            ++(allNoOp ? certified : refused);
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(certified, 50);
    EXPECT_GT(refused, 50);
}

TEST(VoltageMonitorTest, SampleIntervals)
{
    AdcMonitor adc(12, 3.3, 2.2, 3.0, 100e3);
    ComparatorMonitor comp(2.2, 3.0, 0.02, 2e6);
    EXPECT_DOUBLE_EQ(adc.sampleIntervalS(), 1e-5);
    EXPECT_DOUBLE_EQ(comp.sampleIntervalS(), 5e-7);
}

TEST(ResonanceTest, PeakAndRolloff)
{
    ResonanceCurve curve;
    curve.peaks.push_back({27e6, 12.0, 0.5});
    curve.lowPassHz = 40e6;

    double at_peak = curve.gainAt(27e6);
    double detuned = curve.gainAt(35e6);
    double far = curve.gainAt(200e6);
    EXPECT_GT(at_peak, detuned);
    EXPECT_GT(detuned, far);
    EXPECT_LT(far, 0.01);  // >50 MHz: no effect, as measured in §IV
    // Peak gain is attenuated by the low-pass but still substantial.
    EXPECT_GT(at_peak, 0.2);
}

TEST(ResonanceTest, BroadbandFloor)
{
    ResonanceCurve p2;
    p2.broadbandGain = 0.25;
    p2.lowPassHz = 40e6;
    // Wideband response below the corner, dead above.
    EXPECT_GT(p2.gainAt(5e6), 0.2);
    EXPECT_GT(p2.gainAt(20e6), 0.15);
    EXPECT_LT(p2.gainAt(500e6), 0.005);
}

TEST(EmiCouplingTest, DbmConversions)
{
    EXPECT_NEAR(dbmToWatts(30.0), 1.0, 1e-12);
    EXPECT_NEAR(dbmToWatts(0.0), 1e-3, 1e-15);
    EXPECT_NEAR(wattsToDbm(1.0), 30.0, 1e-9);
    // 35 dBm into 50 Ω: ~17.8 V peak.
    EXPECT_NEAR(sourceAmplitude(35.0), 17.78, 0.05);
}

TEST(EmiCouplingTest, PathLossFollowsDistanceAndFrequency)
{
    double near = freeSpacePathLoss(27e6, 1.0);
    double far = freeSpacePathLoss(27e6, 5.0);
    EXPECT_NEAR(near / far, 5.0, 1e-9);
    // Higher frequency, shorter wavelength, more loss.
    EXPECT_GT(freeSpacePathLoss(27e6, 5.0), freeSpacePathLoss(270e6, 5.0));
    // Clamped at short range.
    EXPECT_LE(freeSpacePathLoss(1e6, 0.05), 1.0);
}

TEST(EmiCouplingTest, RemoteAmplitudeIsMeaningfulAtResonance)
{
    ResonanceCurve curve;
    curve.peaks.push_back({27e6, 12.0, 0.45});
    curve.lowPassHz = 40e6;

    // The paper's strongest remote setup: 35 dBm at 5 m.
    double a = inducedAmplitudeRemote(35.0, 27e6, curve, 5.0);
    EXPECT_GT(a, 0.5);  // enough to drag a 3.3 V rail below V_backup
    EXPECT_LT(a, 5.0);

    // Off-resonance: negligible.
    EXPECT_LT(inducedAmplitudeRemote(35.0, 120e6, curve, 5.0), 0.05);
    // Walls attenuate.
    EXPECT_LT(inducedAmplitudeRemote(35.0, 27e6, curve, 5.0, 10.0), a);
    // Power scales monotonically.
    EXPECT_LT(inducedAmplitudeRemote(20.0, 27e6, curve, 5.0), a);
}

TEST(EmiCouplingTest, DpiBypassesPathLoss)
{
    ResonanceCurve curve;
    curve.peaks.push_back({27e6, 12.0, 0.45});
    curve.lowPassHz = 40e6;
    double dpi = inducedAmplitudeDpi(20.0, 27e6, curve, 0.4);
    double remote = inducedAmplitudeRemote(20.0, 27e6, curve, 5.0);
    EXPECT_GT(dpi, remote);
}

}  // namespace
}  // namespace gecko::analog
