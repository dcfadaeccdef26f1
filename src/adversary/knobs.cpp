#include "adversary/knobs.hpp"

#include <algorithm>
#include <climits>
#include <optional>
#include <sstream>

namespace gecko::adversary {

using metrics::roundTripNumber;

const std::array<Knob, 6> kKnobs = {{
    {"freq_hz", &AttackKnobs::freqHz, 5e6, 50e6},
    {"power_dbm", &AttackKnobs::powerDbm, 20.0, 40.0},
    {"duty_period_s", &AttackKnobs::dutyPeriodS, 0.001, 0.02},
    {"duty_on_frac", &AttackKnobs::dutyOnFrac, 0.05, 1.0},
    {"phase_s", &AttackKnobs::phaseS, 0.0, 0.008},
    {"envelope_step_dbm", &AttackKnobs::envelopeStepDbm, 0.0, 20.0},
}};

namespace {

constexpr int kCells = kGridRows * kGridCols;
constexpr const char* kGridCellKey = "grid_cell";

}  // namespace

AttackKnobs
clampKnobs(const AttackKnobs& k)
{
    AttackKnobs out = k;
    for (const Knob& knob : kKnobs)
        out.*knob.member = std::min(std::max(k.*knob.member, knob.lo),
                                    knob.hi);
    out.gridCell = std::min(std::max(k.gridCell, 0), kCells - 1);
    return out;
}

AttackKnobs
randomKnobs(exp::Rng& rng)
{
    AttackKnobs k;
    for (const Knob& knob : kKnobs)
        k.*knob.member = knob.lo + rng.uniform() * (knob.hi - knob.lo);
    k.gridCell = static_cast<int>(rng.pick(kCells));
    return k;
}

AttackKnobs
perturb(const AttackKnobs& k, int coord, int direction, double stepScale)
{
    AttackKnobs out = k;
    const double d = direction >= 0 ? 1.0 : -1.0;
    const int continuous = static_cast<int>(kKnobs.size());
    if (coord >= 0 && coord < continuous) {
        const Knob& knob = kKnobs[static_cast<std::size_t>(coord)];
        out.*knob.member += d * stepScale * 0.5 * (knob.hi - knob.lo);
    } else if (coord == continuous) {
        // Discrete coordinate: step at least one cell.
        const int step =
            std::max(1, static_cast<int>(stepScale * 0.5 * kCells));
        out.gridCell += direction >= 0 ? step : -step;
    }
    return clampKnobs(out);
}

campaign::Scenario
toScenario(const AttackKnobs& k, const std::string& name)
{
    campaign::Scenario sc;
    sc.kind = campaign::ScenarioKind::kTone;
    sc.name = name;
    sc.freqHz = k.freqHz;
    sc.powerDbm = k.powerDbm;
    sc.gridRows = kGridRows;
    sc.gridCols = kGridCols;
    sc.gridRow = k.gridCell / kGridCols;
    sc.gridCol = k.gridCell % kGridCols;
    sc.dutyPeriodS = k.dutyPeriodS;
    sc.dutyOnFrac = k.dutyOnFrac;
    sc.phaseS = k.phaseS;
    if (k.envelopeStepDbm > 0.01)
        sc.envelopeDbm = {k.powerDbm, k.powerDbm - k.envelopeStepDbm};
    sc.outagePeriodS = kOutagePeriodS;
    sc.outageOnFrac = kOutageOnFrac;
    return sc;
}

fault::FaultSpec
toSpec(const AttackKnobs& k, const std::string& name, std::uint64_t seed,
       int seeds, double simS, double sliceS)
{
    fault::FaultSpec spec;
    spec.version = 2;
    spec.name = name;
    spec.hasSeed = true;
    spec.seed = seed;
    spec.hasScenario = true;
    // Unnamed, as every parsed spec scenario is: the name is the spec's.
    spec.scenario = toScenario(k, "");
    spec.hasEngine = true;
    spec.devices = {kSearchDevice};
    spec.seeds = seeds;
    spec.simS = simS;
    spec.sliceS = sliceS;
    return spec;
}

std::string
knobsJson(const AttackKnobs& k)
{
    std::ostringstream os;
    char separator = '{';
    for (const Knob& knob : kKnobs) {
        os << separator << "\"" << knob.key
           << "\":" << roundTripNumber(k.*knob.member);
        separator = ',';
    }
    os << ",\"" << kGridCellKey << "\":" << k.gridCell << "}";
    return os.str();
}

bool
knobsFromJson(const metrics::JsonValue& v, AttackKnobs* out)
{
    AttackKnobs k;
    for (const Knob& knob : kKnobs) {
        const std::optional<double> n = v.getNumber(knob.key);
        if (!n)
            return false;
        k.*knob.member = *n;
    }
    const std::optional<std::uint64_t> cell = v.getU64(kGridCellKey);
    if (!cell || *cell > INT_MAX)
        return false;
    k.gridCell = static_cast<int>(*cell);
    *out = k;
    return true;
}

}  // namespace gecko::adversary
