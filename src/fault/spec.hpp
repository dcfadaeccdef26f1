#ifndef GECKO_FAULT_SPEC_HPP_
#define GECKO_FAULT_SPEC_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"

/**
 * @file
 * Declarative fault-scenario specs (InjectV-style): campaigns are data,
 * not code.
 *
 * A spec is a versioned JSON file describing one scenario — the EMI
 * environment (tone/burst schedule, spatial grid location), the
 * injector mix, the job space and the seed — consumed by both campaign
 * drivers:
 *
 *  - `fault_campaign --spec=FILE` takes the `campaign` section
 *    (workloads, schemes, injector mix, cases, budgets) through
 *    applyToCampaign(), and
 *  - `campaign_runner --spec=FILE` takes the `engine` + `scenario`
 *    sections (job space, tone/burst schedule, grid cell) through
 *    applyToEngine().
 *
 * The scenario section parses straight into a campaign::Scenario, the
 * one attack-scenario type of the engine, the adversarial search and
 * the fault campaign.
 *
 * Parsing is *strict*: unknown fields and unsupported versions are
 * rejected with a field-path diagnostic, so a typo'd spec fails loudly
 * instead of silently running the default campaign.  Each object is one
 * table of key -> typed reader, read by one walk in file order, so the
 * first error in the file is the one reported (DESIGN.md §15).
 * serializeSpec() emits a canonical form — parse → serialize → parse
 * is byte-stable — which the round-trip and pin tests lock down.
 *
 * Seed precedence (resolveSeed): a seed in the spec file overrides
 * GECKO_SEED / --seed; without one the ambient seed applies, falling
 * back to 1.  A spec names a reproducible experiment, so its seed must
 * win over environment leftovers.
 */

namespace gecko::fault {

/** One parsed scenario-spec file (schema version 1 or 2; the v2
 *  attack-schedule fields are rejected in v1 specs). */
struct FaultSpec {
    int version = 1;
    std::string name;
    bool hasSeed = false;
    std::uint64_t seed = 0;

    // "campaign" section (fault_campaign).
    bool hasCampaign = false;
    int cases = 0;
    int corpusPerGroup = 0;
    std::vector<std::string> workloads;
    std::vector<compiler::Scheme> schemes;
    std::vector<InjectorKind> injectors;
    double simBudgetS = 0.0;
    std::uint64_t watchdog = 0;

    // "scenario" section (EMI environment; campaign_runner jobs).  The
    // parser never sets scenario.name: a spec's attack arm aggregates
    // under its kind.
    bool hasScenario = false;
    campaign::Scenario scenario;

    // "engine" section (campaign_runner job space).
    bool hasEngine = false;
    std::vector<std::string> devices;
    int seeds = 0;
    double simS = 0.0;
    double sliceS = 0.0;
};

/**
 * Parse a spec from JSON text.  Strict: unknown fields, bad types, out
 * of range values and unsupported versions all fail with a diagnostic
 * naming the offending field path.
 */
bool parseSpec(const std::string& text, FaultSpec* out,
               std::string* error);

/** Canonical serialization (parse -> serialize -> parse is byte-stable). */
std::string serializeSpec(const FaultSpec& spec);

/** Read and parse a spec file. */
bool loadSpecFile(const std::string& path, FaultSpec* out,
                  std::string* error);

/**
 * The seed a spec-driven run must use: the spec's own seed when it has
 * one, else the ambient exp::globalSeed() (GECKO_SEED / --seed), else 1.
 */
std::uint64_t resolveSeed(const FaultSpec& spec);

/**
 * Apply the spec's campaign section (and resolved seed) onto a
 * CampaignConfig.  Fields the spec leaves unset keep the config's
 * current values.
 */
void applyToCampaign(const FaultSpec& spec, CampaignConfig* config);

/**
 * Apply the spec onto a campaign-engine job space: the resolved seed,
 * the engine section (devices, seeds, sim/slice seconds), the campaign
 * section's workloads and schemes, and the scenario section, which
 * replaces the scenario list with a clean baseline sharing the spec's
 * outage environment plus the spec's attack arm (none for a clean
 * spec).  Fields the spec leaves unset keep the config's current
 * values.
 */
void applyToEngine(const FaultSpec& spec, campaign::EngineConfig* config);

}  // namespace gecko::fault

#endif  // GECKO_FAULT_SPEC_HPP_
