#include "campaign/scenario.hpp"

#include "exp/rng.hpp"
#include "sim/intermittent_sim.hpp"

namespace gecko::campaign {

const char*
scenarioName(ScenarioKind kind)
{
    switch (kind) {
        case ScenarioKind::kClean: return "clean";
        case ScenarioKind::kTone: return "tone";
        case ScenarioKind::kBurst: return "burst";
    }
    return "unknown";
}

Scenario
cleanBaseline(double outagePeriodS, double outageOnFrac)
{
    Scenario clean;
    clean.freqHz = 0.0;
    clean.powerDbm = 0.0;
    clean.outagePeriodS = outagePeriodS;
    clean.outageOnFrac = outageOnFrac;
    return clean;
}

// Environment: the historical constant supply, or a square-wave outage
// cycle when the scenario scripts one (so attacks can phase-lock their
// bursts to harvester outages).  A spatial scenario decorates the base
// rig with its grid cell's coupling and tags the source so carrier-on
// edges trace the position (kSpatialHit).
ScenarioEnv::ScenarioEnv(const Scenario& sc,
                         const device::DeviceProfile& dev,
                         analog::MonitorKind monitor, std::uint64_t jobSeed,
                         double horizonS)
    : attacked_(sc.kind != ScenarioKind::kClean),
      outage_(sc.outagePeriodS > 0),
      constantSupply_(3.3, 5.0),
      outageSupply_(3.3, 5.0, sc.outagePeriodS * sc.outageOnFrac,
                    sc.outagePeriodS * (1.0 - sc.outageOnFrac)),
      spatial_(sc.gridRows > 0),
      baseRig_(dev, monitor, 0.5),
      grid_(spatial_ ? sc.gridRows : 1, spatial_ ? sc.gridCols : 1),
      gridRig_(baseRig_, grid_, spatial_ ? sc.gridRow : 0,
               spatial_ ? sc.gridCol : 0),
      source_(spatial_ ? static_cast<const attack::InjectionRig&>(gridRig_)
                       : baseRig_,
              sc.freqHz, sc.powerDbm)
{
    if (spatial_)
        source_.setGridTag(gridRig_.cell(), gridRig_.couplingMilli(sc.freqHz));
    // Per-window power: the piecewise amplitude envelope cycles over
    // the attack windows; empty = flat powerDbm.
    auto windowPower = [&sc](int w) {
        return sc.envelopeDbm.empty()
                   ? sc.powerDbm
                   : sc.envelopeDbm[static_cast<std::size_t>(w) %
                                    sc.envelopeDbm.size()];
    };
    // The windows are collected first and indexed once: a duty period
    // far below the job's length makes many of them.
    std::vector<attack::AttackWindow> windows;
    if (sc.dutyPeriodS > 0 && attacked_) {
        // Duty-cycled carrier (v2 attack-schedule scripting): on for
        // dutyOnFrac of every period, first window at phaseS.
        const double onS = sc.dutyPeriodS * sc.dutyOnFrac;
        int w = 0;
        for (double t = sc.phaseS; t < horizonS; t += sc.dutyPeriodS, ++w)
            windows.push_back({t, t + onS, sc.freqHz, windowPower(w)});
        scheduled_ = true;
    } else if (sc.kind == ScenarioKind::kBurst) {
        if (sc.burstCount > 0) {
            // Explicit spec-declared windows; phaseS offsets the first
            // (0 keeps the historical gap-led start).
            double t = sc.phaseS > 0
                           ? sc.phaseS
                           : (sc.burstGapS > 0 ? sc.burstGapS : 0.001);
            for (int w = 0; w < sc.burstCount; ++w) {
                windows.push_back({t, t + sc.burstOnS, sc.freqHz,
                                   windowPower(w)});
                t += sc.burstOnS + sc.burstGapS;
            }
        } else {
            // Seed-derived tone windows (same flavour as the fuzz tier).
            exp::Rng rng(exp::mixSeed(jobSeed, 0xb0057ull));
            double t = 0.0005 * (1 + rng.pick(4));
            int nWindows = 2 + static_cast<int>(rng.pick(3));
            for (int w = 0; w < nWindows; ++w) {
                double on = 0.001 * (1 + rng.pick(5));
                windows.push_back({t, t + on, sc.freqHz, sc.powerDbm});
                t += on + 0.001 * (1 + rng.pick(4));
            }
        }
        scheduled_ = true;
    }
    schedule_ = attack::AttackSchedule(std::move(windows));
}

energy::Harvester&
ScenarioEnv::supply()
{
    return outage_ ? static_cast<energy::Harvester&>(outageSupply_)
                   : constantSupply_;
}

void
ScenarioEnv::attach(sim::IntermittentSim& simulation)
{
    if (attacked_)
        simulation.setEmiSource(&source_);
    if (scheduled_)
        simulation.setAttackSchedule(&schedule_);
}

}  // namespace gecko::campaign
