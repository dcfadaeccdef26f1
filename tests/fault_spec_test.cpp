#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "exp/rng.hpp"
#include "fault/campaign.hpp"
#include "fault/spec.hpp"

/**
 * @file
 * Declarative scenario specs (src/fault/spec.hpp): strict parsing with
 * field-path diagnostics, canonical round-trip stability, seed
 * precedence, the spec-to-job-space wiring (applyToEngine) on the
 * checked-in examples, and the equivalence guarantee — a spec-driven
 * campaign is byte-identical to the same campaign configured through
 * flags.
 */

namespace gecko::fault {
namespace {

// The global seed latches at first use, so the ambient-precedence test
// stages a known value before main() runs (static init order within
// this TU is top-down and nothing earlier touches globalSeed()).
const bool g_seedStaged = [] {
    exp::setGlobalSeed(42);
    return true;
}();

FaultSpec
fullSpec()
{
    FaultSpec spec;
    spec.name = "round-trip";
    spec.hasSeed = true;
    spec.seed = 0xdeadbeefcafef00dull;
    spec.hasCampaign = true;
    spec.cases = 48;
    spec.corpusPerGroup = 2;
    spec.workloads = {"crc16", "sensor_loop"};
    spec.schemes = {compiler::Scheme::kNvp, compiler::Scheme::kGecko};
    spec.injectors = {InjectorKind::kBitFlip, InjectorKind::kInstrSkip,
                      InjectorKind::kOperandFlip};
    spec.simBudgetS = 0.75;
    spec.watchdog = 123456;
    spec.hasScenario = true;
    spec.scenario.kind = campaign::ScenarioKind::kBurst;
    spec.scenario.freqHz = 27e6;
    spec.scenario.powerDbm = 35.0;
    spec.scenario.gridRows = 8;
    spec.scenario.gridCols = 8;
    spec.scenario.gridRow = 3;
    spec.scenario.gridCol = 5;
    spec.scenario.burstCount = 3;
    spec.scenario.burstOnS = 0.004;
    spec.scenario.burstGapS = 0.003;
    spec.hasEngine = true;
    spec.devices = {"MSP430FR5994"};
    spec.seeds = 2;
    spec.simS = 0.02;
    spec.sliceS = 0.005;
    return spec;
}

TEST(SpecRoundTrip, SerializeParseSerializeIsByteStable)
{
    const std::string first = serializeSpec(fullSpec());
    FaultSpec reparsed;
    std::string error;
    ASSERT_TRUE(parseSpec(first, &reparsed, &error)) << error;
    const std::string second = serializeSpec(reparsed);
    EXPECT_EQ(first, second);

    // And a third generation for good measure: the canonical form is a
    // fixed point, not merely a 2-cycle.
    FaultSpec third;
    ASSERT_TRUE(parseSpec(second, &third, &error)) << error;
    EXPECT_EQ(second, serializeSpec(third));
}

TEST(SpecRoundTrip, EveryFieldSurvives)
{
    const FaultSpec spec = fullSpec();
    FaultSpec out;
    std::string error;
    ASSERT_TRUE(parseSpec(serializeSpec(spec), &out, &error)) << error;
    EXPECT_EQ(out.name, spec.name);
    EXPECT_TRUE(out.hasSeed);
    EXPECT_EQ(out.seed, spec.seed);
    EXPECT_EQ(out.cases, spec.cases);
    EXPECT_EQ(out.corpusPerGroup, spec.corpusPerGroup);
    EXPECT_EQ(out.workloads, spec.workloads);
    EXPECT_EQ(out.schemes, spec.schemes);
    EXPECT_EQ(out.injectors, spec.injectors);
    EXPECT_DOUBLE_EQ(out.simBudgetS, spec.simBudgetS);
    EXPECT_EQ(out.watchdog, spec.watchdog);
    EXPECT_EQ(out.scenario.kind, spec.scenario.kind);
    EXPECT_DOUBLE_EQ(out.scenario.freqHz, spec.scenario.freqHz);
    EXPECT_EQ(out.scenario.gridRows, spec.scenario.gridRows);
    EXPECT_EQ(out.scenario.gridCol, spec.scenario.gridCol);
    EXPECT_EQ(out.scenario.burstCount, spec.scenario.burstCount);
    EXPECT_DOUBLE_EQ(out.scenario.burstOnS, spec.scenario.burstOnS);
    EXPECT_EQ(out.devices, spec.devices);
    EXPECT_EQ(out.seeds, spec.seeds);
    EXPECT_DOUBLE_EQ(out.simS, spec.simS);
    EXPECT_DOUBLE_EQ(out.sliceS, spec.sliceS);
}

TEST(SpecParse, UnknownFieldRejectedWithPath)
{
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(parseSpec(
        R"({"version": 1, "campaign": {"casez": 10}})", &spec, &error));
    EXPECT_NE(error.find("$.campaign.casez"), std::string::npos) << error;

    EXPECT_FALSE(parseSpec(R"({"version": 1, "bogus": true})", &spec,
                           &error));
    EXPECT_NE(error.find("$.bogus"), std::string::npos) << error;
}

TEST(SpecParse, UnsupportedVersionRejected)
{
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(parseSpec(R"({"version": 3})", &spec, &error));
    EXPECT_NE(error.find("version 3"), std::string::npos) << error;

    EXPECT_FALSE(parseSpec(R"({"name": "no-version"})", &spec, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// --- schema v2: attack-schedule scripting ---

FaultSpec
fullSpecV2()
{
    FaultSpec spec = fullSpec();
    spec.version = 2;
    spec.scenario.dutyPeriodS = 0.004;
    spec.scenario.dutyOnFrac = 0.5;
    spec.scenario.phaseS = 0.001;
    spec.scenario.envelopeDbm = {35.0, 29.0, 35.0, 23.0};
    spec.scenario.outagePeriodS = 0.008;
    spec.scenario.outageOnFrac = 0.75;
    return spec;
}

TEST(SpecV2, RoundTripIsByteStableAndEveryFieldSurvives)
{
    const std::string first = serializeSpec(fullSpecV2());
    FaultSpec out;
    std::string error;
    ASSERT_TRUE(parseSpec(first, &out, &error)) << error;
    EXPECT_EQ(first, serializeSpec(out));

    EXPECT_EQ(out.version, 2);
    EXPECT_DOUBLE_EQ(out.scenario.dutyPeriodS, 0.004);
    EXPECT_DOUBLE_EQ(out.scenario.dutyOnFrac, 0.5);
    EXPECT_DOUBLE_EQ(out.scenario.phaseS, 0.001);
    ASSERT_EQ(out.scenario.envelopeDbm.size(), 4u);
    EXPECT_DOUBLE_EQ(out.scenario.envelopeDbm[1], 29.0);
    EXPECT_DOUBLE_EQ(out.scenario.outagePeriodS, 0.008);
    EXPECT_DOUBLE_EQ(out.scenario.outageOnFrac, 0.75);
}

TEST(SpecPin, FullSpecSerializesToItsRecordedBytes)
{
    // The canonical text itself, not just its fixed-point property: a
    // reordered key, a changed separator or number format fails here.
    EXPECT_EQ(serializeSpec(fullSpecV2()), R"({
  "version": 2,
  "name": "round-trip",
  "seed": 16045690984503111693,
  "campaign": {
    "cases": 48,
    "corpus_per_group": 2,
    "workloads": ["crc16", "sensor_loop"],
    "schemes": ["NVP", "GECKO"],
    "injectors": ["bitflip", "instrskip", "operandflip"],
    "sim_budget_s": 0.75,
    "watchdog": 123456
  },
  "scenario": {
    "kind": "burst",
    "freq_hz": 27000000,
    "power_dbm": 35,
    "grid": {"rows": 8, "cols": 8, "row": 3, "col": 5},
    "burst": {"count": 3, "on_s": 0.004, "gap_s": 0.003},
    "duty": {"period_s": 0.004, "on_frac": 0.5},
    "phase_s": 0.001,
    "envelope": [35, 29, 35, 23],
    "outage": {"period_s": 0.008, "on_frac": 0.75}
  },
  "engine": {
    "devices": ["MSP430FR5994"],
    "seeds": 2,
    "sim_s": 0.02,
    "slice_s": 0.005
  }
}
)");
}

TEST(SpecPin, CheckedInExamplesAreCanonical)
{
    int examples = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(GECKO_EXAMPLES_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        SCOPED_TRACE(entry.path().string());
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        FaultSpec spec;
        std::string error;
        ASSERT_TRUE(parseSpec(text.str(), &spec, &error)) << error;
        EXPECT_EQ(serializeSpec(spec), text.str());
        ++examples;
    }
    EXPECT_GE(examples, 2);
}

TEST(SpecPin, EveryRuleReportsItsExactDiagnostic)
{
    // One malformed spec per rule, with the whole diagnostic.  The
    // order-dependent cases pin the walk: members are read in file
    // order, a section's own checks run before the rules that span
    // sections, and the version gate runs after the walk.
    const std::pair<const char*, const char*> cases[] = {
        {R"([])", "spec: top-level value must be an object"},
        {R"({"version": 1)",
         "spec: expected ',' or '}' in object (line 1, column 14)"},
        {R"({"version": 1, "version": 1})",
         "spec: duplicate key \"version\" (line 1, column 25)"},
        {R"({"name": "x"})", "spec: missing required field \"version\""},
        {R"({"version": 3, "bogus": 1})",
         "spec: unsupported version 3 (this build reads versions 1 and 2)"},
        {R"({"bogus": 1})", "spec: unknown field \"bogus\" at $.bogus"},
        {R"({"version": 1.5})", "spec: expected an integer at $.version"},
        {R"({"version": -1})", "spec: value out of range at $.version"},
        {R"({"version": 1, "name": 5})", "spec: expected a string at $.name"},
        {R"({"version": 1, "seed": -1})",
         "spec: expected an unsigned integer at $.seed"},
        {R"({"version": 1, "campaign": []})",
         "spec: expected an object at $.campaign"},
        {R"({"version": 1, "campaign": {"casez": 10}})",
         "spec: unknown field \"casez\" at $.campaign.casez"},
        {R"({"version": 1, "campaign": {"cases": 0}})",
         "spec: value out of range at $.campaign.cases"},
        {R"({"version": 1, "campaign": {"workloads": []}})",
         "spec: expected a non-empty string array at $.campaign.workloads"},
        {R"({"version": 1, "campaign": {"schemes": ["NVP", "NOPE"]}})",
         "spec: unknown scheme \"NOPE\" at $.campaign.schemes"},
        {R"({"version": 1, "campaign": {"injectors": ["zapper"]}})",
         "spec: unknown injector \"zapper\" at $.campaign.injectors"},
        {R"({"version": 1, "campaign": {"sim_budget_s": 0}})",
         "spec: value out of range at $.campaign.sim_budget_s"},
        {R"({"version": 1, "campaign": {"watchdog": 1.5}})",
         "spec: expected an unsigned integer at $.campaign.watchdog"},
        {R"({"version": 1, "engine": {"seeds": 0}})",
         "spec: value out of range at $.engine.seeds"},
        {R"({"version": 1, "engine": {"sim_s": "x"}})",
         "spec: expected a number at $.engine.sim_s"},
        {R"({"version": 1, "engine": {"slice_s": -1}})",
         "spec: value out of range at $.engine.slice_s"},
        {R"({"version": 1, "scenario": {"kind": "bogus"}})",
         "spec: kind must be clean, tone or burst at $.scenario.kind"},
        {R"({"version": 1, "scenario": {"kind": "tone", "freq_hz": 0}})",
         "spec: value out of range at $.scenario.freq_hz"},
        {R"({"version": 1, "scenario": {"kind": "tone", "grid": 5}})",
         "spec: expected an object at $.scenario.grid"},
        {R"({"version": 1, "scenario": {"kind": "tone",
             "grid": {"rows": 4097, "cols": 4}}})",
         "spec: value out of range at $.scenario.grid.rows"},
        {R"({"version": 1, "scenario": {"kind": "clean", "grid": {}}})",
         "spec: rows and cols are required at $.scenario.grid"},
        {R"({"version": 1, "scenario": {"kind": "tone",
             "grid": {"rows": 4, "cols": 4, "row": 0, "col": 4}}})",
         "spec: cell (row, col) outside the grid at $.scenario.grid"},
        {R"({"version": 1, "scenario": {"kind": "burst",
             "burst": {"count": 2, "on_s": 0}}})",
         "spec: count >= 1 and on_s > 0 are required at $.scenario.burst"},
        {R"({"version": 1, "scenario": {"kind": "burst",
             "burst": {"count": 2, "on_s": 0.1, "gapp": 1}}})",
         "spec: unknown field \"gapp\" at $.scenario.burst.gapp"},
        {R"({"version": 1, "scenario": {"kind": "tone",
             "burst": {"count": 2, "on_s": 0.1}}})",
         "spec: burst schedule requires kind \"burst\" at $.scenario"},
        {R"({"version": 1, "scenario": {
             "grid": {"rows": 2, "cols": 2}, "kind": "clean"}})",
         "spec: grid/burst require a tone or burst scenario at $.scenario"},
        {R"({"version": 2, "scenario": {"kind": "tone",
             "duty": {"period_s": 0.004, "on_frac": 1.5}}})",
         "spec: period_s > 0 and on_frac in (0, 1] are required at "
         "$.scenario.duty"},
        {R"({"version": 2, "scenario": {"kind": "clean",
             "outage": {"period_s": 0.008, "on_frac": 1}}})",
         "spec: period_s > 0 and on_frac in (0, 1) are required at "
         "$.scenario.outage"},
        {R"({"version": 2, "scenario": {"kind": "tone", "phase_s": -1}})",
         "spec: value out of range at $.scenario.phase_s"},
        {R"({"version": 2, "scenario": {"kind": "tone",
             "envelope": ["a"]}})",
         "spec: expected a non-empty number array at $.scenario.envelope"},
        {R"({"version": 2, "scenario": {"kind": "clean", "phase_s": 1}})",
         "spec: duty/phase_s/envelope require a tone or burst scenario at "
         "$.scenario"},
        {R"({"scenario": {"kind": "tone",
             "duty": {"period_s": 0.004, "on_frac": 0.5}}, "version": 1})",
         "spec: field $.scenario.duty requires version 2 (spec declares "
         "version 1)"},
        {R"({"version": 1, "scenario": {"kind": "tone", "phase_s": 0.001,
             "duty": {"period_s": 0.004, "on_frac": 0.5}}})",
         "spec: field $.scenario.phase_s requires version 2 (spec declares "
         "version 1)"},
        {R"({"version": 1, "scenario": {"kind": "tone", "bogus": 1,
             "duty": {"period_s": 0.004, "on_frac": 0.5}}})",
         "spec: unknown field \"bogus\" at $.scenario.bogus"},
    };
    for (const auto& [text, diagnostic] : cases) {
        FaultSpec spec;
        std::string error;
        EXPECT_FALSE(parseSpec(text, &spec, &error)) << text;
        EXPECT_EQ(error, diagnostic) << text;
    }
}

TEST(SpecV2, V2FieldsRejectedInV1Specs)
{
    FaultSpec spec;
    std::string error;
    // The same scenario keys parse under version 2 ...
    ASSERT_TRUE(parseSpec(
        R"({"version": 2, "scenario": {"kind": "tone",
            "duty": {"period_s": 0.004, "on_frac": 0.5}}})",
        &spec, &error))
        << error;
    // ... and are refused, by field path, under version 1.
    EXPECT_FALSE(parseSpec(
        R"({"version": 1, "scenario": {"kind": "tone",
            "duty": {"period_s": 0.004, "on_frac": 0.5}}})",
        &spec, &error));
    EXPECT_NE(error.find("$.scenario.duty"), std::string::npos) << error;
    EXPECT_NE(error.find("requires version 2"), std::string::npos) << error;

    EXPECT_FALSE(parseSpec(
        R"({"version": 1, "scenario": {"kind": "burst",
            "phase_s": 0.001}})",
        &spec, &error));
    EXPECT_NE(error.find("$.scenario.phase_s"), std::string::npos) << error;
}

TEST(SpecV2, ScheduleFieldsNeedAnAttackButOutageIsEnvironment)
{
    FaultSpec spec;
    std::string error;
    // Duty cycling a clean scenario is meaningless.
    EXPECT_FALSE(parseSpec(
        R"({"version": 2, "scenario": {"kind": "clean",
            "duty": {"period_s": 0.004, "on_frac": 0.5}}})",
        &spec, &error));
    EXPECT_NE(error.find("tone or burst"), std::string::npos) << error;
    // An outage environment without an attacker is legal.
    EXPECT_TRUE(parseSpec(
        R"({"version": 2, "scenario": {"kind": "clean",
            "outage": {"period_s": 0.008, "on_frac": 0.75}}})",
        &spec, &error))
        << error;
    // Range checks: on_frac must be a real fraction.
    EXPECT_FALSE(parseSpec(
        R"({"version": 2, "scenario": {"kind": "tone",
            "duty": {"period_s": 0.004, "on_frac": 1.5}}})",
        &spec, &error));
    EXPECT_FALSE(parseSpec(
        R"({"version": 2, "scenario": {"kind": "tone",
            "outage": {"period_s": 0.0, "on_frac": 0.5}}})",
        &spec, &error));
}

TEST(SpecParse, MalformedJsonAndDuplicateKeysRejected)
{
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(parseSpec(R"({"version": 1)", &spec, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseSpec(R"({"version": 1, "version": 1})", &spec,
                           &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(SpecParse, BadNamesAndRangesRejected)
{
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(parseSpec(
        R"({"version": 1, "campaign": {"schemes": ["NOPE"]}})", &spec,
        &error));
    EXPECT_NE(error.find("NOPE"), std::string::npos) << error;
    EXPECT_FALSE(parseSpec(
        R"({"version": 1, "campaign": {"injectors": ["zapper"]}})", &spec,
        &error));
    EXPECT_NE(error.find("zapper"), std::string::npos) << error;
    // Cell outside the grid.
    EXPECT_FALSE(parseSpec(
        R"({"version": 1, "scenario": {"kind": "tone",
            "grid": {"rows": 4, "cols": 4, "row": 4, "col": 0}}})",
        &spec, &error));
    EXPECT_NE(error.find("grid"), std::string::npos) << error;
    // Grid on a clean scenario is meaningless.
    EXPECT_FALSE(parseSpec(
        R"({"version": 1, "scenario": {"kind": "clean",
            "grid": {"rows": 2, "cols": 2, "row": 0, "col": 0}}})",
        &spec, &error));
    EXPECT_NE(error.find("scenario"), std::string::npos) << error;
}

TEST(SpecSeed, SpecSeedOverridesAmbientSeed)
{
    ASSERT_TRUE(g_seedStaged);
    ASSERT_EQ(exp::globalSeed(), 42u);
    FaultSpec spec;
    spec.hasSeed = true;
    spec.seed = 777;
    EXPECT_EQ(resolveSeed(spec), 777u);
}

TEST(SpecSeed, AmbientSeedAppliesWhenSpecHasNone)
{
    ASSERT_EQ(exp::globalSeed(), 42u);
    FaultSpec spec;
    EXPECT_EQ(resolveSeed(spec), 42u);
    // The fall-back-to-1 arm is covered by applyToCampaign keeping the
    // deterministic default when nothing seeds the run; asserting it
    // here would need a second process (globalSeed latches once).
}

// --- applyToEngine: the one spec-to-job-space wiring ---

TEST(SpecEngine, DutyCycleExampleReachesTheAttackArmFieldByField)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(loadSpecFile(std::string(GECKO_EXAMPLES_DIR) +
                                 "/duty_cycle_attack_spec.json",
                             &spec, &error))
        << error;
    campaign::EngineConfig config;
    config.space.workloads = {"fir"};
    applyToEngine(spec, &config);

    EXPECT_EQ(config.seed, 7u);
    const campaign::CampaignSpace& space = config.space;
    // No campaign section: the config's own workloads stay.
    EXPECT_EQ(space.workloads, std::vector<std::string>{"fir"});
    EXPECT_EQ(space.devices, std::vector<std::string>{"MSP430FR5994"});
    EXPECT_EQ(space.seeds, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_DOUBLE_EQ(space.simSeconds, 0.02);
    EXPECT_DOUBLE_EQ(space.sliceSimSeconds, 0.005);

    ASSERT_EQ(space.scenarios.size(), 2u);
    // Outage is environment: the clean baseline shares it.
    EXPECT_TRUE(space.scenarios[0] == campaign::cleanBaseline(0.008, 0.75));

    const campaign::Scenario& attack = space.scenarios[1];
    EXPECT_EQ(attack.kind, campaign::ScenarioKind::kTone);
    EXPECT_TRUE(attack.name.empty());
    EXPECT_EQ(attack.freqHz, 27e6);
    EXPECT_EQ(attack.powerDbm, 35.0);
    EXPECT_EQ(attack.dutyPeriodS, 0.004);
    EXPECT_EQ(attack.dutyOnFrac, 0.5);
    EXPECT_EQ(attack.phaseS, 0.001);
    EXPECT_EQ(attack.envelopeDbm, (std::vector<double>{35, 29, 35, 23}));
    EXPECT_EQ(attack.outagePeriodS, 0.008);
    EXPECT_EQ(attack.outageOnFrac, 0.75);
    EXPECT_EQ(attack.gridRows, 0);
    EXPECT_EQ(attack.burstCount, 0);
}

TEST(SpecEngine, GridExampleReachesTheAttackArmFieldByField)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(loadSpecFile(std::string(GECKO_EXAMPLES_DIR) +
                                 "/emi_grid_spec.json",
                             &spec, &error))
        << error;
    campaign::EngineConfig config;
    applyToEngine(spec, &config);

    EXPECT_EQ(config.seed, 42u);
    const campaign::CampaignSpace& space = config.space;
    // The campaign section's workloads and schemes shape the job space.
    EXPECT_EQ(space.workloads,
              (std::vector<std::string>{"crc16", "sensor_loop"}));
    EXPECT_EQ(space.schemes, (std::vector<compiler::Scheme>{
                                 compiler::Scheme::kNvp,
                                 compiler::Scheme::kGecko}));
    EXPECT_EQ(space.seeds, (std::vector<std::uint64_t>{1, 2}));

    ASSERT_EQ(space.scenarios.size(), 2u);
    EXPECT_TRUE(space.scenarios[0] == campaign::cleanBaseline());

    const campaign::Scenario& attack = space.scenarios[1];
    EXPECT_EQ(attack.kind, campaign::ScenarioKind::kBurst);
    EXPECT_EQ(attack.freqHz, 27e6);
    EXPECT_EQ(attack.powerDbm, 35.0);
    EXPECT_EQ(attack.gridRows, 8);
    EXPECT_EQ(attack.gridCols, 8);
    EXPECT_EQ(attack.gridRow, 3);
    EXPECT_EQ(attack.gridCol, 5);
    EXPECT_EQ(attack.burstCount, 3);
    EXPECT_EQ(attack.burstOnS, 0.004);
    EXPECT_EQ(attack.burstGapS, 0.003);
    EXPECT_EQ(attack.dutyPeriodS, 0.0);
    EXPECT_EQ(attack.phaseS, 0.0);
}

TEST(SpecEngine, CleanSpecLeavesOnlyTheBaselineArm)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parseSpec(
        R"({"version": 2, "scenario": {"kind": "clean",
            "outage": {"period_s": 0.008, "on_frac": 0.75}}})",
        &spec, &error))
        << error;
    campaign::EngineConfig config;
    applyToEngine(spec, &config);
    ASSERT_EQ(config.space.scenarios.size(), 1u);
    EXPECT_TRUE(config.space.scenarios[0] ==
                campaign::cleanBaseline(0.008, 0.75));
}

TEST(SpecCampaign, SpecDrivenRunMatchesFlagDrivenRun)
{
    const char* text = R"({
      "version": 1,
      "seed": 11,
      "campaign": {
        "cases": 24,
        "workloads": ["crc16"],
        "schemes": ["NVP", "GECKO"],
        "injectors": ["bitflip", "instrskip"],
        "sim_budget_s": 0.5
      }
    })";
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parseSpec(text, &spec, &error)) << error;

    CampaignConfig fromSpec;
    applyToCampaign(spec, &fromSpec);

    CampaignConfig byHand;
    byHand.seed = 11;
    byHand.cases = 24;
    byHand.workloads = {"crc16"};
    byHand.schemes = {compiler::Scheme::kNvp, compiler::Scheme::kGecko};
    byHand.injectorMix = {InjectorKind::kBitFlip,
                          InjectorKind::kInstrSkip};
    byHand.simTimeBudgetS = 0.5;

    CampaignResult a = runCampaign(fromSpec);
    CampaignResult b = runCampaign(byHand);
    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.corpus, b.corpus);
    EXPECT_EQ(a.cases.size(), b.cases.size());
}

}  // namespace
}  // namespace gecko::fault
