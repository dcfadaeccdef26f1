#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "energy/capacitor.hpp"
#include "energy/harvester.hpp"
#include "energy/power_model.hpp"

namespace gecko::energy {
namespace {

CapacitorConfig
cfg1mF()
{
    CapacitorConfig c;
    c.capacitanceF = 1e-3;
    c.initialV = 3.3;
    c.maxV = 3.3;
    c.leakageS = 0.0;
    return c;
}

TEST(CapacitorTest, EnergyVoltageRelation)
{
    Capacitor cap(cfg1mF());
    EXPECT_NEAR(cap.voltage(), 3.3, 1e-12);
    EXPECT_NEAR(cap.energy(), 0.5 * 1e-3 * 3.3 * 3.3, 1e-12);

    cap.setVoltage(2.0);
    EXPECT_NEAR(cap.energy(), 0.5 * 1e-3 * 4.0, 1e-12);
}

TEST(CapacitorTest, DischargeClampsAtZero)
{
    Capacitor cap(cfg1mF());
    double e = cap.energy();
    EXPECT_DOUBLE_EQ(cap.discharge(e / 2), e / 2);
    EXPECT_NEAR(cap.energy(), e / 2, 1e-15);
    EXPECT_DOUBLE_EQ(cap.discharge(e), e / 2);  // only half was left
    EXPECT_DOUBLE_EQ(cap.energy(), 0.0);
    EXPECT_DOUBLE_EQ(cap.voltage(), 0.0);
}

TEST(CapacitorTest, RcChargingApproachesSource)
{
    Capacitor cap(cfg1mF());
    cap.setVoltage(0.0);
    // tau = RC = 100 * 1e-3 = 0.1 s; after 5 tau essentially charged.
    cap.chargeFrom(3.3, 100.0, 0.5);
    EXPECT_GT(cap.voltage(), 3.27);
    EXPECT_LE(cap.voltage(), 3.3);
}

TEST(CapacitorTest, ExactStepMatchesManySmallSteps)
{
    Capacitor one(cfg1mF());
    one.setVoltage(1.0);
    Capacitor many(cfg1mF());
    many.setVoltage(1.0);

    one.chargeFrom(3.3, 50.0, 0.1);
    for (int i = 0; i < 1000; ++i)
        many.chargeFrom(3.3, 50.0, 0.1 / 1000);
    EXPECT_NEAR(one.voltage(), many.voltage(), 1e-9);
}

TEST(CapacitorTest, TimeToReachIsConsistentWithCharging)
{
    Capacitor cap(cfg1mF());
    cap.setVoltage(2.0);
    double t = cap.timeToReach(3.0, 3.3, 100.0);
    ASSERT_GT(t, 0.0);
    cap.chargeFrom(3.3, 100.0, t);
    EXPECT_NEAR(cap.voltage(), 3.0, 1e-6);
}

TEST(CapacitorTest, TimeToReachUnreachable)
{
    Capacitor cap(cfg1mF());
    cap.setVoltage(1.0);
    EXPECT_LT(cap.timeToReach(3.4, 3.3, 100.0), 0.0);  // above source
    EXPECT_EQ(cap.timeToReach(0.5, 3.3, 100.0), 0.0);  // already there
}

TEST(CapacitorTest, ChargeTimeGrowsWithCapacitance)
{
    // The Fig. 15 effect.  The paper keeps the buffered energy equal by
    // adjusting the checkpoint threshold (V_backup rises toward V_on for
    // large C) while V_on stays the hardware's wake level.  With pure RC
    // physics the window charge time would be roughly constant; what
    // makes big supercaps slow is their leakage, which scales with
    // capacitance and eats into the weak harvester's headroom.
    const double v_on = 3.0;
    const double v_backup_1mf = 2.2;
    const double energy = bufferedEnergy(1e-3, v_on, v_backup_1mf);
    const double leak_per_farad = 0.2;  // S/F, supercap-class leakage
    double prev_time = 0.0;
    for (double c : {1e-3, 2e-3, 5e-3, 10e-3}) {
        CapacitorConfig config;
        config.capacitanceF = c;
        config.maxV = 3.4;
        config.leakageS = leak_per_farad * c;
        double v_backup = std::sqrt(v_on * v_on - 2 * energy / c);
        config.initialV = v_backup;
        Capacitor cap(config);
        double t = cap.timeToReach(v_on, 3.4, 30.0);
        ASSERT_GT(t, 0.0) << "C = " << c;
        EXPECT_GT(t, prev_time) << "C = " << c;
        prev_time = t;
    }
}

TEST(CapacitorTest, LeakageDrains)
{
    CapacitorConfig c = cfg1mF();
    c.leakageS = 1e-4;
    Capacitor cap(c);
    double v0 = cap.voltage();
    cap.leak(10.0);
    EXPECT_LT(cap.voltage(), v0);
    // V(t) = V0 exp(-G t / C) = 3.3 * exp(-1)
    EXPECT_NEAR(cap.voltage(), 3.3 * std::exp(-1.0), 1e-6);
}

TEST(CapacitorTest, CeilingEnergyIsTheExactVoltageBound)
{
    // voltage() > v  ⇔  energy() > ceilingEnergy(v), checked on the
    // doubles adjacent to the bound and on random energies.
    std::mt19937_64 rng(5);
    for (double c : {20e-6, 1e-3, 4.7e-3, 10e-3}) {
        CapacitorConfig config;
        config.capacitanceF = c;
        const Capacitor cap(config);
        const auto volts = [c](double e) { return std::sqrt(2.0 * e / c); };
        for (double v : {2.08 + 0.02, 2.2, 3.0, 0.7, 1e-3}) {
            const double bound = cap.ceilingEnergy(v);
            double below = bound;
            double above = bound;
            for (int i = 0; i < 64; ++i) {
                EXPECT_FALSE(volts(below) > v) << "C=" << c << " v=" << v;
                above = std::nextafter(above, 1.0);
                EXPECT_TRUE(volts(above) > v) << "C=" << c << " v=" << v;
                below = std::nextafter(below, 0.0);
            }
            std::uniform_real_distribution<double> energy(0.0, 4.0 * bound);
            for (int i = 0; i < 1000; ++i) {
                const double e = energy(rng);
                EXPECT_EQ(volts(e) > v, e > bound);
            }
        }
    }
}

TEST(CapacitorTest, StepEnergyMatchesDischargeThenCharge)
{
    // The burst march's step must be the slow path's discharge +
    // chargeFrom bit for bit: random inputs plus the clamp edges (a
    // draw at or past the stored energy, a source at or below the rail,
    // a steady state above the clamp).
    std::mt19937_64 rng(9);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 20000; ++i) {
        CapacitorConfig config;
        config.capacitanceF = std::pow(10.0, -5.0 + 3.0 * unit(rng));
        config.maxV = 3.3;
        Capacitor cap(config);
        cap.setVoltage(3.4 * unit(rng));
        const double e0 = cap.energy();
        double joules = 0.0;
        switch (i % 5) {
          case 0: joules = e0 * 1e-3 * unit(rng); break;
          case 1: joules = e0; break;
          case 2: joules = e0 * (1.0 + unit(rng)); break;
          case 3: joules = e0 * unit(rng); break;
          default: joules = 0.0; break;
        }
        double vOc = 5.0 * unit(rng);
        if (i % 7 == 0)
            vOc = cap.voltage();
        if (i % 11 == 0)
            vOc = 0.0;
        const double rSeries = 0.1 + 200.0 * unit(rng);
        const double dt = std::pow(10.0, -7.0 + 6.0 * unit(rng));

        Capacitor reference = cap;
        reference.discharge(joules);
        reference.chargeFrom(vOc, rSeries, dt);
        const double stepped = Capacitor::stepEnergy(
            e0, joules, cap.planCharge(vOc, rSeries, dt),
            config.capacitanceF, config.maxV);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(stepped),
                  std::bit_cast<std::uint64_t>(reference.energy()))
            << "case " << i << ": E=" << e0 << " j=" << joules
            << " vOc=" << vOc << " Rs=" << rSeries << " dt=" << dt;
    }
}

TEST(HarvesterTest, SquareWaveTiming)
{
    SquareWaveHarvester h(3.3, 50.0, 0.6, 0.4);  // 1 Hz with 60% duty
    EXPECT_EQ(h.openCircuitVoltage(0.1), 3.3);
    EXPECT_EQ(h.openCircuitVoltage(0.7), 0.0);
    EXPECT_EQ(h.openCircuitVoltage(1.1), 3.3);
    EXPECT_TRUE(h.steadyOver(0.1, 0.4));
    EXPECT_FALSE(h.steadyOver(0.5, 0.2));
    EXPECT_TRUE(h.steadyOver(0.7, 0.2));
}

TEST(HarvesterTest, TraceWrapsAround)
{
    TraceHarvester h({1.0, 2.0, 3.0}, 0.5, 10.0);
    EXPECT_EQ(h.openCircuitVoltage(0.0), 1.0);
    EXPECT_EQ(h.openCircuitVoltage(0.6), 2.0);
    EXPECT_EQ(h.openCircuitVoltage(1.2), 3.0);
    EXPECT_EQ(h.openCircuitVoltage(1.6), 1.0);  // wrapped
}

TEST(HarvesterTest, RfTraceHasOutages)
{
    TraceHarvester h = makeRfTrace(3.3, 50.0, 1.0, 0.5, 10.0, 7);
    int on = 0, off = 0;
    for (double t = 0; t < 10.0; t += 0.01)
        (h.openCircuitVoltage(t) > 0 ? on : off)++;
    EXPECT_GT(on, 100);
    EXPECT_GT(off, 100);
}

TEST(PowerModelTest, DerivedQuantities)
{
    PowerModel pm;
    pm.clockHz = 8e6;
    pm.energyPerCycleJ = 3e-9;
    EXPECT_DOUBLE_EQ(pm.secondsPerCycle(), 1.0 / 8e6);
    EXPECT_NEAR(pm.activePowerW(), 0.024, 1e-12);
}

}  // namespace
}  // namespace gecko::energy
