#include "adversary/knobs.hpp"

#include <algorithm>
#include <climits>
#include <optional>
#include <sstream>

namespace gecko::adversary {

using metrics::roundTripNumber;

namespace {

double
clampD(double v, double lo, double hi)
{
    return std::min(std::max(v, lo), hi);
}

}  // namespace

AttackKnobs
clampKnobs(const AttackKnobs& k, const KnobBounds& b)
{
    AttackKnobs out = k;
    out.freqHz = clampD(k.freqHz, b.freqMinHz, b.freqMaxHz);
    out.powerDbm = clampD(k.powerDbm, b.powerMinDbm, b.powerMaxDbm);
    out.dutyPeriodS =
        clampD(k.dutyPeriodS, b.dutyPeriodMinS, b.dutyPeriodMaxS);
    out.dutyOnFrac = clampD(k.dutyOnFrac, b.dutyOnFracMin, b.dutyOnFracMax);
    out.phaseS = clampD(k.phaseS, b.phaseMinS, b.phaseMaxS);
    out.envelopeStepDbm =
        clampD(k.envelopeStepDbm, 0.0, b.envelopeStepMaxDbm);
    out.gridCell = std::min(std::max(k.gridCell, 0), b.cells() - 1);
    return out;
}

AttackKnobs
randomKnobs(exp::Rng& rng, const KnobBounds& b)
{
    AttackKnobs k;
    k.freqHz = b.freqMinHz + rng.uniform() * (b.freqMaxHz - b.freqMinHz);
    k.powerDbm =
        b.powerMinDbm + rng.uniform() * (b.powerMaxDbm - b.powerMinDbm);
    k.dutyPeriodS = b.dutyPeriodMinS +
                    rng.uniform() * (b.dutyPeriodMaxS - b.dutyPeriodMinS);
    k.dutyOnFrac = b.dutyOnFracMin +
                   rng.uniform() * (b.dutyOnFracMax - b.dutyOnFracMin);
    k.phaseS = b.phaseMinS + rng.uniform() * (b.phaseMaxS - b.phaseMinS);
    k.envelopeStepDbm = rng.uniform() * b.envelopeStepMaxDbm;
    k.gridCell = static_cast<int>(rng.pick(
        static_cast<std::uint32_t>(b.cells())));
    return k;
}

AttackKnobs
perturb(const AttackKnobs& k, const KnobBounds& b, int coord, int direction,
        double stepScale)
{
    AttackKnobs out = k;
    const double d = direction >= 0 ? 1.0 : -1.0;
    switch (coord) {
      case 0:
        out.freqHz += d * stepScale * 0.5 * (b.freqMaxHz - b.freqMinHz);
        break;
      case 1:
        out.powerDbm +=
            d * stepScale * 0.5 * (b.powerMaxDbm - b.powerMinDbm);
        break;
      case 2:
        out.dutyPeriodS +=
            d * stepScale * 0.5 * (b.dutyPeriodMaxS - b.dutyPeriodMinS);
        break;
      case 3:
        out.dutyOnFrac +=
            d * stepScale * 0.5 * (b.dutyOnFracMax - b.dutyOnFracMin);
        break;
      case 4:
        out.phaseS += d * stepScale * 0.5 * (b.phaseMaxS - b.phaseMinS);
        break;
      case 5:
        out.envelopeStepDbm += d * stepScale * 0.5 * b.envelopeStepMaxDbm;
        break;
      case 6: {
        // Discrete coordinate: step at least one cell.
        const int cells = b.cells();
        const int step = std::max(
            1, static_cast<int>(stepScale * 0.5 * cells));
        out.gridCell += direction >= 0 ? step : -step;
        break;
      }
      default:
        break;
    }
    return clampKnobs(out, b);
}

campaign::Scenario
toScenario(const AttackKnobs& k, const KnobBounds& b,
           const std::string& name, double outagePeriodS,
           double outageOnFrac)
{
    campaign::Scenario sc;
    sc.kind = campaign::ScenarioKind::kTone;
    sc.name = name;
    sc.freqHz = k.freqHz;
    sc.powerDbm = k.powerDbm;
    sc.gridRows = b.gridRows;
    sc.gridCols = b.gridCols;
    sc.gridRow = k.gridCell / b.gridCols;
    sc.gridCol = k.gridCell % b.gridCols;
    sc.dutyPeriodS = k.dutyPeriodS;
    sc.dutyOnFrac = k.dutyOnFrac;
    sc.phaseS = k.phaseS;
    if (k.envelopeStepDbm > 0.01)
        sc.envelopeDbm = {k.powerDbm, k.powerDbm - k.envelopeStepDbm};
    sc.outagePeriodS = outagePeriodS;
    sc.outageOnFrac = outageOnFrac;
    return sc;
}

fault::FaultSpec
toSpec(const AttackKnobs& k, const KnobBounds& b, const std::string& name,
       std::uint64_t seed, const std::string& device, int seeds,
       double simS, double sliceS, double outagePeriodS,
       double outageOnFrac)
{
    fault::FaultSpec spec;
    spec.version = 2;
    spec.name = name;
    spec.hasSeed = true;
    spec.seed = seed;
    spec.hasScenario = true;
    // Unnamed, as every parsed spec scenario is: the name is the spec's.
    spec.scenario = toScenario(k, b, "", outagePeriodS, outageOnFrac);
    spec.hasEngine = true;
    spec.devices = {device};
    spec.seeds = seeds;
    spec.simS = simS;
    spec.sliceS = sliceS;
    return spec;
}

std::string
knobsJson(const AttackKnobs& k)
{
    std::ostringstream os;
    os << "{\"freq_hz\":" << roundTripNumber(k.freqHz)
       << ",\"power_dbm\":" << roundTripNumber(k.powerDbm)
       << ",\"duty_period_s\":" << roundTripNumber(k.dutyPeriodS)
       << ",\"duty_on_frac\":" << roundTripNumber(k.dutyOnFrac)
       << ",\"phase_s\":" << roundTripNumber(k.phaseS)
       << ",\"envelope_step_dbm\":" << roundTripNumber(k.envelopeStepDbm)
       << ",\"grid_cell\":" << k.gridCell << "}";
    return os.str();
}

bool
knobsFromJson(const metrics::JsonValue& v, AttackKnobs* out)
{
    AttackKnobs k;
    auto read = [&v](const char* key, double* field) {
        const std::optional<double> n = v.getNumber(key);
        if (n)
            *field = *n;
        return n.has_value();
    };
    const std::optional<std::uint64_t> cell = v.getU64("grid_cell");
    if (!read("freq_hz", &k.freqHz) || !read("power_dbm", &k.powerDbm) ||
        !read("duty_period_s", &k.dutyPeriodS) ||
        !read("duty_on_frac", &k.dutyOnFrac) ||
        !read("phase_s", &k.phaseS) ||
        !read("envelope_step_dbm", &k.envelopeStepDbm) || !cell ||
        *cell > INT_MAX)
        return false;
    k.gridCell = static_cast<int>(*cell);
    *out = k;
    return true;
}

}  // namespace gecko::adversary
