#ifndef GECKO_ADVERSARY_KNOBS_HPP_
#define GECKO_ADVERSARY_KNOBS_HPP_

#include <array>
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

/** One continuous coordinate: its search.jsonl key, its AttackKnobs
 *  member and its box [lo, hi]. */
struct Knob {
    const char* key;
    double AttackKnobs::*member;
    double lo;
    double hi;
};

/** The continuous coordinates, in journal key order, which is also
 *  the random-restart draw order (knobs.cpp). */
extern const std::array<Knob, 6> kKnobs;

/** Number of search coordinates: kKnobs, then the grid cell. */
inline constexpr int kKnobCount = std::tuple_size_v<decltype(kKnobs)> + 1;

/// Spatial grid the attacker moves on (row-major cells).
inline constexpr int kGridRows = 8;
inline constexpr int kGridCols = 8;

/// The search victim: the defense under attack runs GECKO on this
/// board.
inline constexpr compiler::Scheme kSearchScheme = compiler::Scheme::kGecko;
inline constexpr const char* kSearchDevice = "MSP430FR5994";

/// Harvester outage environment shared by every arm including the
/// clean baseline (the phase-locking target): up 75 % of every 8 ms.
inline constexpr double kOutagePeriodS = 0.008;
inline constexpr double kOutageOnFrac = 0.75;

/** Clamp every knob into the box. */
AttackKnobs clampKnobs(const AttackKnobs& k);

/** Uniform random point in the box (random restart). */
AttackKnobs randomKnobs(exp::Rng& rng);

/**
 * The candidate one coordinate-search step away: knob `coord`
 * (0..kKnobCount-1) moved by `direction` (±1) times `stepScale` of its
 * half-range, clamped into the box.
 */
AttackKnobs perturb(const AttackKnobs& k, int coord, int direction,
                    double stepScale);

/**
 * The campaign scenario evaluating this candidate: a named, duty-
 * cycled, spatially-placed tone on the search's outage environment.
 */
campaign::Scenario toScenario(const AttackKnobs& k, const std::string& name);

/**
 * The candidate as a schema-v2 scenario spec (bit-identical replay
 * artifact): scenario section = toScenario() unnamed (a parsed spec's
 * scenario never carries a name), engine section from the evaluation
 * parameters on the search device.
 */
fault::FaultSpec toSpec(const AttackKnobs& k, const std::string& name,
                        std::uint64_t seed, int seeds, double simS,
                        double sliceS);

/** Canonical JSON object of the knobs (journal / telemetry payload). */
std::string knobsJson(const AttackKnobs& k);

/** Read parsed knobsJson() output (resume path).  False when a knob
 *  is missing or mistyped. */
bool knobsFromJson(const metrics::JsonValue& v, AttackKnobs* out);

}  // namespace gecko::adversary

#endif  // GECKO_ADVERSARY_KNOBS_HPP_
