#ifndef GECKO_CAMPAIGN_SCENARIO_HPP_
#define GECKO_CAMPAIGN_SCENARIO_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "attack/spatial.hpp"
#include "energy/harvester.hpp"

namespace gecko::sim {
class IntermittentSim;
}  // namespace gecko::sim

/**
 * @file
 * The one attack-scenario type (DESIGN.md §13): what the attacker does
 * to a victim — tone, timing, position against the voltage monitor —
 * and the supply it happens on.  ScenarioEnv is the one place that
 * turns a Scenario into simulator objects.
 */

namespace gecko::campaign {

/** Attack scenario applied to a job's victim. */
enum class ScenarioKind : std::uint8_t {
    kClean = 0,   ///< No attacker.
    kTone = 1,    ///< Continuous tone for the whole run.
    kBurst = 2,   ///< Seed-derived windows of tone (AttackSchedule).
};

const char* scenarioName(ScenarioKind kind);

struct Scenario {
    ScenarioKind kind = ScenarioKind::kClean;
    double freqHz = 27e6;
    double powerDbm = 35.0;
    /// Optional stable label: a named scenario aggregates under (and
    /// hashes as) its name instead of its kind, so many same-kind
    /// variants (e.g. adversarial-search candidates) stay distinct
    /// groups.  "" = historical kind-keyed behaviour.
    std::string name;
    /// Spatial injection position (attack::SpatialGrid): gridRows > 0
    /// places the attacker at cell (gridRow, gridCol) of a rows x cols
    /// map and scales the rig's coupling accordingly.  0 = the
    /// historical position-free rig (and the historical configHash).
    int gridRows = 0;
    int gridCols = 0;
    int gridRow = 0;
    int gridCol = 0;
    /// Explicit burst schedule: burstCount > 0 replaces the
    /// seed-derived windows of kBurst with `burstCount` windows of
    /// `burstOnS` seconds separated by `burstGapS` gaps.
    int burstCount = 0;
    double burstOnS = 0.0;
    double burstGapS = 0.0;
    // --- spec schema v2 attack-schedule scripting ---
    /// Duty cycling (dutyPeriodS > 0 enables): the carrier is on for
    /// `dutyOnFrac` of every `dutyPeriodS` period, expressed as an
    /// explicit AttackSchedule over the whole job.  Applies to kTone
    /// (windowed tone) and kBurst.
    double dutyPeriodS = 0.0;
    double dutyOnFrac = 0.0;
    /// Offset of the first attack window (duty or explicit burst).
    double phaseS = 0.0;
    /// Piecewise amplitude envelope: per-window carrier power (dBm),
    /// cycling over the windows.  Empty = flat powerDbm.
    std::vector<double> envelopeDbm;
    /// Harvester outage environment (outagePeriodS > 0 enables): the
    /// supply is up for `outageOnFrac` of every period and collapses
    /// for the rest (SquareWaveHarvester), so burst phase can lock to
    /// harvester outages.  0 = the historical constant supply.
    double outagePeriodS = 0.0;
    double outageOnFrac = 0.0;

    bool operator==(const Scenario&) const = default;
};

/**
 * The clean baseline arm (carrier zeroed) on the given outage
 * environment.  Outage is environment, not attack: a baseline shares
 * its attacked arm's outage so the delta isolates the EMI.
 */
Scenario cleanBaseline(double outagePeriodS = 0.0, double outageOnFrac = 0.0);

/**
 * The simulator objects a Scenario implies: the supply (constant, or
 * the square-wave outage cycle), the remote rig (grid-decorated when
 * the scenario places one), the EmiSource on it and the AttackSchedule
 * of its windows.  Build it before the IntermittentSim, pass supply()
 * to the simulator's constructor, then attach().  The simulator keeps
 * references into it, so it must outlive the simulator.
 */
class ScenarioEnv
{
  public:
    /**
     * @param monitor  the victim's monitor path the rig couples into
     * @param jobSeed  seeds the windows of a kBurst scenario without an
     *                 explicit schedule
     * @param horizonS simulated seconds the duty-cycled windows span
     */
    ScenarioEnv(const Scenario& sc, const device::DeviceProfile& dev,
                analog::MonitorKind monitor, std::uint64_t jobSeed,
                double horizonS);
    ScenarioEnv(const ScenarioEnv&) = delete;
    ScenarioEnv& operator=(const ScenarioEnv&) = delete;

    energy::Harvester& supply();

    /** Attach the source (any attack) and schedule (windowed attacks). */
    void attach(sim::IntermittentSim& simulation);

  private:
    const bool attacked_;
    bool scheduled_ = false;
    const bool outage_;
    energy::ConstantHarvester constantSupply_;
    energy::SquareWaveHarvester outageSupply_;
    const bool spatial_;
    attack::RemoteRig baseRig_;
    attack::SpatialGrid grid_;
    attack::GridRig gridRig_;
    attack::EmiSource source_;
    attack::AttackSchedule schedule_;
};

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_SCENARIO_HPP_
