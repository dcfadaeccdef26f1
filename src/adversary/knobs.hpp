#ifndef GECKO_ADVERSARY_KNOBS_HPP_
#define GECKO_ADVERSARY_KNOBS_HPP_

#include <cstdint>
#include <string>

#include "campaign/engine.hpp"
#include "exp/rng.hpp"
#include "fault/spec.hpp"
#include "metrics/json.hpp"

/**
 * @file
 * The adversarial search space (DESIGN.md §16).
 *
 * An attack candidate is a point in a small continuous/discrete knob
 * space: carrier frequency, base amplitude, duty cycle, burst phase
 * relative to the harvester outage, a two-level amplitude envelope and
 * the attacker's spatial grid cell.  Every knob maps 1:1 onto the
 * schema-v2 scenario-spec fields (src/fault/spec.hpp), so any evaluated
 * candidate — in particular each per-defense best attack — serializes
 * as a versioned spec and replays bit-identically through the campaign
 * engine.
 */

namespace gecko::adversary {

/** One attack candidate (a point in the search space). */
struct AttackKnobs {
    /// Carrier frequency (Hz) — the coupling resonances are the
    /// attacker's primary lever.
    double freqHz = 27e6;
    /// Base carrier power (dBm).
    double powerDbm = 35.0;
    /// Duty-cycle period (s); the carrier is on for `dutyOnFrac` of it.
    /// dutyOnFrac = 1.0 degenerates to a continuous tone.
    double dutyPeriodS = 0.004;
    double dutyOnFrac = 1.0;
    /// Offset of the first attack window (s) — lets the search lock
    /// bursts to the harvester outage phase.
    double phaseS = 0.0;
    /// Two-level amplitude envelope: windows alternate powerDbm and
    /// powerDbm - envelopeStepDbm.  ~0 = flat envelope.
    double envelopeStepDbm = 0.0;
    /// Attacker position: cell index (row-major) of the spatial grid.
    int gridCell = 0;
};

/** Box bounds of the space (clamping + random restarts). */
struct KnobBounds {
    double freqMinHz = 5e6, freqMaxHz = 50e6;
    double powerMinDbm = 20.0, powerMaxDbm = 40.0;
    double dutyPeriodMinS = 0.001, dutyPeriodMaxS = 0.02;
    double dutyOnFracMin = 0.05, dutyOnFracMax = 1.0;
    double phaseMinS = 0.0, phaseMaxS = 0.008;
    double envelopeStepMaxDbm = 20.0;
    /// Spatial grid the attacker moves on (row-major cells).
    int gridRows = 8;
    int gridCols = 8;

    int cells() const { return gridRows * gridCols; }
};

/** Number of search coordinates (see perturb()). */
inline constexpr int kKnobCount = 7;

/** Clamp every knob into the box. */
AttackKnobs clampKnobs(const AttackKnobs& k, const KnobBounds& b);

/** Uniform random point in the box (random restart). */
AttackKnobs randomKnobs(exp::Rng& rng, const KnobBounds& b);

/**
 * The candidate one coordinate-search step away: knob `coord`
 * (0..kKnobCount-1) moved by `direction` (±1) times `stepScale` of its
 * half-range, clamped into the box.
 */
AttackKnobs perturb(const AttackKnobs& k, const KnobBounds& b, int coord,
                    int direction, double stepScale);

/**
 * The campaign scenario evaluating this candidate: a named, duty-
 * cycled, spatially-placed tone with the given harvester-outage
 * environment (outagePeriodS <= 0 = constant supply).
 */
campaign::Scenario toScenario(const AttackKnobs& k, const KnobBounds& b,
                              const std::string& name,
                              double outagePeriodS, double outageOnFrac);

/**
 * The candidate as a schema-v2 scenario spec (bit-identical replay
 * artifact): scenario section = toScenario() unnamed (a parsed spec's
 * scenario never carries a name), engine section from the evaluation
 * parameters.
 */
fault::FaultSpec toSpec(const AttackKnobs& k, const KnobBounds& b,
                        const std::string& name, std::uint64_t seed,
                        const std::string& device, int seeds, double simS,
                        double sliceS, double outagePeriodS,
                        double outageOnFrac);

/** Canonical JSON object of the knobs (journal / telemetry payload). */
std::string knobsJson(const AttackKnobs& k);

/** Read parsed knobsJson() output (resume path).  False when a knob
 *  is missing or mistyped. */
bool knobsFromJson(const metrics::JsonValue& v, AttackKnobs* out);

}  // namespace gecko::adversary

#endif  // GECKO_ADVERSARY_KNOBS_HPP_
