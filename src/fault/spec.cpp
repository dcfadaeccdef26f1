#include "fault/spec.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "exp/rng.hpp"
#include "fault/injectors.hpp"
#include "metrics/json.hpp"

namespace gecko::fault {

using metrics::JsonValue;
using metrics::jsonEscape;
using metrics::roundTripNumber;

namespace {

// ---------------------------------------------------------------------
// Strict mapping: every object member must be consumed by name.
// ---------------------------------------------------------------------
bool
failAt(std::string* error, const std::string& path, const std::string& what)
{
    if (error->empty())
        *error = "spec: " + what + " at " + path;
    return false;
}

bool
asInt(const JsonValue& v, const std::string& path, int lo, int hi,
      int* out, std::string* error)
{
    if (v.type != JsonValue::kNumber ||
        v.num != std::floor(v.num))
        return failAt(error, path, "expected an integer");
    if (v.num < lo || v.num > hi)
        return failAt(error, path, "value out of range");
    *out = static_cast<int>(v.num);
    return true;
}

bool
asU64(const JsonValue& v, const std::string& path, std::uint64_t* out,
      std::string* error)
{
    const std::optional<std::uint64_t> u = v.asU64();
    if (!u)
        return failAt(error, path, "expected an unsigned integer");
    *out = *u;
    return true;
}

bool
asDouble(const JsonValue& v, const std::string& path, double* out,
         std::string* error)
{
    if (v.type != JsonValue::kNumber)
        return failAt(error, path, "expected a number");
    *out = v.num;
    return true;
}

bool
asString(const JsonValue& v, const std::string& path, std::string* out,
         std::string* error)
{
    if (v.type != JsonValue::kString)
        return failAt(error, path, "expected a string");
    *out = v.str;
    return true;
}

bool
asStringList(const JsonValue& v, const std::string& path,
             std::vector<std::string>* out, std::string* error)
{
    if (v.type != JsonValue::kArray || v.arr.empty())
        return failAt(error, path, "expected a non-empty string array");
    out->clear();
    for (const JsonValue& e : v.arr) {
        if (e.type != JsonValue::kString || e.str.empty())
            return failAt(error, path,
                          "expected a non-empty string array");
        out->push_back(e.str);
    }
    return true;
}

bool
asDoubleList(const JsonValue& v, const std::string& path,
             std::vector<double>* out, std::string* error)
{
    if (v.type != JsonValue::kArray || v.arr.empty())
        return failAt(error, path, "expected a non-empty number array");
    out->clear();
    for (const JsonValue& e : v.arr) {
        if (e.type != JsonValue::kNumber)
            return failAt(error, path,
                          "expected a non-empty number array");
        out->push_back(e.num);
    }
    return true;
}

bool
mapGrid(const JsonValue& v, campaign::Scenario* sc, std::string* error)
{
    if (v.type != JsonValue::kObject)
        return failAt(error, "$.scenario.grid", "expected an object");
    for (const auto& [key, val] : v.members) {
        std::string path = "$.scenario.grid." + key;
        if (key == "rows") {
            if (!asInt(val, path, 1, 4096, &sc->gridRows, error))
                return false;
        } else if (key == "cols") {
            if (!asInt(val, path, 1, 4096, &sc->gridCols, error))
                return false;
        } else if (key == "row") {
            if (!asInt(val, path, 0, 4095, &sc->gridRow, error))
                return false;
        } else if (key == "col") {
            if (!asInt(val, path, 0, 4095, &sc->gridCol, error))
                return false;
        } else {
            return failAt(error, path, "unknown field \"" + key + "\"");
        }
    }
    if (sc->gridRows < 1 || sc->gridCols < 1)
        return failAt(error, "$.scenario.grid",
                      "rows and cols are required");
    if (sc->gridRow >= sc->gridRows || sc->gridCol >= sc->gridCols)
        return failAt(error, "$.scenario.grid",
                      "cell (row, col) outside the grid");
    return true;
}

bool
mapBurst(const JsonValue& v, campaign::Scenario* sc, std::string* error)
{
    if (v.type != JsonValue::kObject)
        return failAt(error, "$.scenario.burst", "expected an object");
    for (const auto& [key, val] : v.members) {
        std::string path = "$.scenario.burst." + key;
        if (key == "count") {
            if (!asInt(val, path, 1, 1000, &sc->burstCount, error))
                return false;
        } else if (key == "on_s") {
            if (!asDouble(val, path, &sc->burstOnS, error))
                return false;
        } else if (key == "gap_s") {
            if (!asDouble(val, path, &sc->burstGapS, error))
                return false;
        } else {
            return failAt(error, path, "unknown field \"" + key + "\"");
        }
    }
    if (sc->burstCount < 1 || sc->burstOnS <= 0.0 || sc->burstGapS < 0.0)
        return failAt(error, "$.scenario.burst",
                      "count >= 1 and on_s > 0 are required");
    return true;
}

bool
mapDuty(const JsonValue& v, campaign::Scenario* sc, std::string* error)
{
    if (v.type != JsonValue::kObject)
        return failAt(error, "$.scenario.duty", "expected an object");
    for (const auto& [key, val] : v.members) {
        std::string path = "$.scenario.duty." + key;
        if (key == "period_s") {
            if (!asDouble(val, path, &sc->dutyPeriodS, error))
                return false;
        } else if (key == "on_frac") {
            if (!asDouble(val, path, &sc->dutyOnFrac, error))
                return false;
        } else {
            return failAt(error, path, "unknown field \"" + key + "\"");
        }
    }
    if (sc->dutyPeriodS <= 0.0 || sc->dutyOnFrac <= 0.0 ||
        sc->dutyOnFrac > 1.0)
        return failAt(error, "$.scenario.duty",
                      "period_s > 0 and on_frac in (0, 1] are required");
    return true;
}

bool
mapOutage(const JsonValue& v, campaign::Scenario* sc, std::string* error)
{
    if (v.type != JsonValue::kObject)
        return failAt(error, "$.scenario.outage", "expected an object");
    for (const auto& [key, val] : v.members) {
        std::string path = "$.scenario.outage." + key;
        if (key == "period_s") {
            if (!asDouble(val, path, &sc->outagePeriodS, error))
                return false;
        } else if (key == "on_frac") {
            if (!asDouble(val, path, &sc->outageOnFrac, error))
                return false;
        } else {
            return failAt(error, path, "unknown field \"" + key + "\"");
        }
    }
    if (sc->outagePeriodS <= 0.0 || sc->outageOnFrac <= 0.0 ||
        sc->outageOnFrac >= 1.0)
        return failAt(error, "$.scenario.outage",
                      "period_s > 0 and on_frac in (0, 1) are required");
    return true;
}

bool
mapScenario(const JsonValue& v, FaultSpec* spec,
            std::vector<std::string>* v2Fields, std::string* error)
{
    if (v.type != JsonValue::kObject)
        return failAt(error, "$.scenario", "expected an object");
    campaign::Scenario& sc = spec->scenario;
    using campaign::ScenarioKind;
    bool hasGrid = false, hasBurst = false;
    for (const auto& [key, val] : v.members) {
        std::string path = "$.scenario." + key;
        if (key == "kind") {
            std::string kind;
            if (!asString(val, path, &kind, error))
                return false;
            for (ScenarioKind k : {ScenarioKind::kClean, ScenarioKind::kTone,
                                   ScenarioKind::kBurst})
                if (kind == campaign::scenarioName(k))
                    sc.kind = k;
            if (kind != campaign::scenarioName(sc.kind))
                return failAt(error, path,
                              "kind must be clean, tone or burst");
        } else if (key == "freq_hz") {
            if (!asDouble(val, path, &sc.freqHz, error))
                return false;
            if (sc.freqHz <= 0.0)
                return failAt(error, path, "value out of range");
        } else if (key == "power_dbm") {
            if (!asDouble(val, path, &sc.powerDbm, error))
                return false;
        } else if (key == "grid") {
            hasGrid = true;
            if (!mapGrid(val, &sc, error))
                return false;
        } else if (key == "burst") {
            hasBurst = true;
            if (!mapBurst(val, &sc, error))
                return false;
        } else if (key == "duty") {
            v2Fields->push_back(path);
            if (!mapDuty(val, &sc, error))
                return false;
        } else if (key == "phase_s") {
            v2Fields->push_back(path);
            if (!asDouble(val, path, &sc.phaseS, error))
                return false;
            if (sc.phaseS < 0.0)
                return failAt(error, path, "value out of range");
        } else if (key == "envelope") {
            v2Fields->push_back(path);
            if (!asDoubleList(val, path, &sc.envelopeDbm, error))
                return false;
        } else if (key == "outage") {
            v2Fields->push_back(path);
            if (!mapOutage(val, &sc, error))
                return false;
        } else {
            return failAt(error, path, "unknown field \"" + key + "\"");
        }
    }
    if (sc.kind == ScenarioKind::kClean && (hasGrid || hasBurst))
        return failAt(error, "$.scenario",
                      "grid/burst require a tone or burst scenario");
    if (hasBurst && sc.kind != ScenarioKind::kBurst)
        return failAt(error, "$.scenario",
                      "burst schedule requires kind \"burst\"");
    if (sc.kind == ScenarioKind::kClean &&
        (sc.dutyPeriodS > 0.0 || sc.phaseS > 0.0 ||
         !sc.envelopeDbm.empty()))
        return failAt(error, "$.scenario",
                      "duty/phase_s/envelope require a tone or burst "
                      "scenario");
    spec->hasScenario = true;
    return true;
}

bool
mapCampaign(const JsonValue& v, FaultSpec* spec, std::string* error)
{
    if (v.type != JsonValue::kObject)
        return failAt(error, "$.campaign", "expected an object");
    for (const auto& [key, val] : v.members) {
        std::string path = "$.campaign." + key;
        if (key == "cases") {
            if (!asInt(val, path, 1, 100000000, &spec->cases, error))
                return false;
        } else if (key == "corpus_per_group") {
            if (!asInt(val, path, 1, 100000, &spec->corpusPerGroup,
                       error))
                return false;
        } else if (key == "workloads") {
            if (!asStringList(val, path, &spec->workloads, error))
                return false;
        } else if (key == "schemes") {
            std::vector<std::string> names;
            if (!asStringList(val, path, &names, error))
                return false;
            spec->schemes.clear();
            for (const std::string& n : names) {
                compiler::Scheme s;
                if (!compiler::schemeFromName(n, &s))
                    return failAt(error, path,
                                  "unknown scheme \"" + n + "\"");
                spec->schemes.push_back(s);
            }
        } else if (key == "injectors") {
            std::vector<std::string> names;
            if (!asStringList(val, path, &names, error))
                return false;
            spec->injectors.clear();
            for (const std::string& n : names) {
                InjectorKind k;
                if (!injectorFromName(n, &k))
                    return failAt(error, path,
                                  "unknown injector \"" + n + "\"");
                spec->injectors.push_back(k);
            }
        } else if (key == "sim_budget_s") {
            if (!asDouble(val, path, &spec->simBudgetS, error))
                return false;
            if (spec->simBudgetS <= 0.0)
                return failAt(error, path, "value out of range");
        } else if (key == "watchdog") {
            if (!asU64(val, path, &spec->watchdog, error))
                return false;
        } else {
            return failAt(error, path, "unknown field \"" + key + "\"");
        }
    }
    spec->hasCampaign = true;
    return true;
}

bool
mapEngine(const JsonValue& v, FaultSpec* spec, std::string* error)
{
    if (v.type != JsonValue::kObject)
        return failAt(error, "$.engine", "expected an object");
    for (const auto& [key, val] : v.members) {
        std::string path = "$.engine." + key;
        if (key == "devices") {
            if (!asStringList(val, path, &spec->devices, error))
                return false;
        } else if (key == "seeds") {
            if (!asInt(val, path, 1, 100000, &spec->seeds, error))
                return false;
        } else if (key == "sim_s") {
            if (!asDouble(val, path, &spec->simS, error))
                return false;
            if (spec->simS <= 0.0)
                return failAt(error, path, "value out of range");
        } else if (key == "slice_s") {
            if (!asDouble(val, path, &spec->sliceS, error))
                return false;
            if (spec->sliceS < 0.0)
                return failAt(error, path, "value out of range");
        } else {
            return failAt(error, path, "unknown field \"" + key + "\"");
        }
    }
    spec->hasEngine = true;
    return true;
}

// ---------------------------------------------------------------------
// Canonical serialization.
// ---------------------------------------------------------------------

void
emitStringList(std::ostringstream& os, const std::vector<std::string>& v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(v[i]) << "\"";
    os << "]";
}

}  // namespace

bool
parseSpec(const std::string& text, FaultSpec* out, std::string* error)
{
    std::string err;
    *out = FaultSpec{};
    JsonValue root;
    if (!metrics::parseJson(text, &root, &err)) {
        if (error)
            *error = "spec: " + err;
        return false;
    }
    auto failTop = [&](const std::string& what) {
        if (error)
            *error = err.empty() ? "spec: " + what : err;
        return false;
    };
    if (root.type != JsonValue::kObject)
        return failTop("top-level value must be an object");

    bool sawVersion = false;
    std::vector<std::string> v2Fields;
    for (const auto& [key, val] : root.members) {
        std::string path = "$." + key;
        if (key == "version") {
            sawVersion = true;
            if (!asInt(val, path, 0, 1 << 20, &out->version, &err))
                return failTop("");
            if (out->version != 1 && out->version != 2) {
                err = "spec: unsupported version " +
                      std::to_string(out->version) +
                      " (this build reads versions 1 and 2)";
                return failTop("");
            }
        } else if (key == "name") {
            if (!asString(val, path, &out->name, &err))
                return failTop("");
        } else if (key == "seed") {
            if (!asU64(val, path, &out->seed, &err))
                return failTop("");
            out->hasSeed = true;
        } else if (key == "campaign") {
            if (!mapCampaign(val, out, &err))
                return failTop("");
        } else if (key == "scenario") {
            if (!mapScenario(val, out, &v2Fields, &err))
                return failTop("");
        } else if (key == "engine") {
            if (!mapEngine(val, out, &err))
                return failTop("");
        } else {
            failAt(&err, path, "unknown field \"" + key + "\"");
            return failTop("");
        }
    }
    if (!sawVersion)
        return failTop("missing required field \"version\"");
    // Version gating happens after the walk (the version key may
    // legally follow the scenario section in the file).
    if (out->version < 2 && !v2Fields.empty()) {
        err = "spec: field " + v2Fields.front() +
              " requires version 2 (spec declares version " +
              std::to_string(out->version) + ")";
        return failTop("");
    }
    return true;
}

std::string
serializeSpec(const FaultSpec& spec)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"version\": " << spec.version;
    if (!spec.name.empty())
        os << ",\n  \"name\": \"" << jsonEscape(spec.name) << "\"";
    if (spec.hasSeed)
        os << ",\n  \"seed\": " << spec.seed;
    if (spec.hasCampaign) {
        os << ",\n  \"campaign\": {";
        bool first = true;
        auto field = [&](const char* name) -> std::ostringstream& {
            os << (first ? "\n    \"" : ",\n    \"") << name << "\": ";
            first = false;
            return os;
        };
        if (spec.cases > 0)
            field("cases") << spec.cases;
        if (spec.corpusPerGroup > 0)
            field("corpus_per_group") << spec.corpusPerGroup;
        if (!spec.workloads.empty())
            emitStringList(field("workloads"), spec.workloads);
        if (!spec.schemes.empty()) {
            std::vector<std::string> names;
            for (compiler::Scheme s : spec.schemes)
                names.emplace_back(compiler::schemeName(s));
            emitStringList(field("schemes"), names);
        }
        if (!spec.injectors.empty()) {
            std::vector<std::string> names;
            for (InjectorKind k : spec.injectors)
                names.emplace_back(injectorName(k));
            emitStringList(field("injectors"), names);
        }
        if (spec.simBudgetS > 0.0)
            field("sim_budget_s") << roundTripNumber(spec.simBudgetS);
        if (spec.watchdog > 0)
            field("watchdog") << spec.watchdog;
        os << "\n  }";
    }
    if (spec.hasScenario) {
        const campaign::Scenario& sc = spec.scenario;
        os << ",\n  \"scenario\": {";
        os << "\n    \"kind\": \"" << campaign::scenarioName(sc.kind)
           << "\"";
        if (sc.kind != campaign::ScenarioKind::kClean) {
            os << ",\n    \"freq_hz\": " << roundTripNumber(sc.freqHz);
            os << ",\n    \"power_dbm\": " << roundTripNumber(sc.powerDbm);
            if (sc.gridRows > 0) {
                os << ",\n    \"grid\": {\"rows\": " << sc.gridRows
                   << ", \"cols\": " << sc.gridCols
                   << ", \"row\": " << sc.gridRow
                   << ", \"col\": " << sc.gridCol << "}";
            }
            if (sc.kind == campaign::ScenarioKind::kBurst &&
                sc.burstCount > 0) {
                os << ",\n    \"burst\": {\"count\": " << sc.burstCount
                   << ", \"on_s\": " << roundTripNumber(sc.burstOnS)
                   << ", \"gap_s\": " << roundTripNumber(sc.burstGapS) << "}";
            }
            if (sc.dutyPeriodS > 0.0) {
                os << ",\n    \"duty\": {\"period_s\": "
                   << roundTripNumber(sc.dutyPeriodS) << ", \"on_frac\": "
                   << roundTripNumber(sc.dutyOnFrac) << "}";
            }
            if (sc.phaseS > 0.0)
                os << ",\n    \"phase_s\": " << roundTripNumber(sc.phaseS);
            if (!sc.envelopeDbm.empty()) {
                os << ",\n    \"envelope\": [";
                for (std::size_t i = 0; i < sc.envelopeDbm.size(); ++i)
                    os << (i ? ", " : "") << roundTripNumber(sc.envelopeDbm[i]);
                os << "]";
            }
        }
        if (sc.outagePeriodS > 0.0) {
            os << ",\n    \"outage\": {\"period_s\": "
               << roundTripNumber(sc.outagePeriodS) << ", \"on_frac\": "
               << roundTripNumber(sc.outageOnFrac) << "}";
        }
        os << "\n  }";
    }
    if (spec.hasEngine) {
        os << ",\n  \"engine\": {";
        bool first = true;
        auto field = [&](const char* name) -> std::ostringstream& {
            os << (first ? "\n    \"" : ",\n    \"") << name << "\": ";
            first = false;
            return os;
        };
        if (!spec.devices.empty())
            emitStringList(field("devices"), spec.devices);
        if (spec.seeds > 0)
            field("seeds") << spec.seeds;
        if (spec.simS > 0.0)
            field("sim_s") << roundTripNumber(spec.simS);
        if (spec.sliceS > 0.0)
            field("slice_s") << roundTripNumber(spec.sliceS);
        os << "\n  }";
    }
    os << "\n}\n";
    return os.str();
}

bool
loadSpecFile(const std::string& path, FaultSpec* out, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "spec: cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!parseSpec(buf.str(), out, error)) {
        if (error && !error->empty())
            *error += " [" + path + "]";
        return false;
    }
    return true;
}

std::uint64_t
resolveSeed(const FaultSpec& spec)
{
    if (spec.hasSeed)
        return spec.seed;
    std::uint64_t ambient = exp::globalSeed();
    return ambient != 0 ? ambient : 1;
}

void
applyToCampaign(const FaultSpec& spec, CampaignConfig* config)
{
    config->seed = resolveSeed(spec);
    if (spec.cases > 0)
        config->cases = spec.cases;
    if (spec.corpusPerGroup > 0)
        config->corpusPerGroup = spec.corpusPerGroup;
    if (!spec.workloads.empty())
        config->workloads = spec.workloads;
    if (!spec.schemes.empty())
        config->schemes = spec.schemes;
    if (!spec.injectors.empty())
        config->injectorMix = spec.injectors;
    if (spec.simBudgetS > 0.0)
        config->simTimeBudgetS = spec.simBudgetS;
    if (spec.watchdog > 0)
        config->watchdogBudget = spec.watchdog;
}

void
applyToEngine(const FaultSpec& spec, campaign::EngineConfig* config)
{
    campaign::CampaignSpace& space = config->space;
    config->seed = resolveSeed(spec);
    if (!spec.devices.empty())
        space.devices = spec.devices;
    if (spec.seeds > 0)
        space.seeds = campaign::seedRange(spec.seeds);
    if (spec.simS > 0.0)
        space.simSeconds = spec.simS;
    if (spec.sliceS > 0.0)
        space.sliceSimSeconds = spec.sliceS;
    if (!spec.workloads.empty())
        space.workloads = spec.workloads;
    if (!spec.schemes.empty())
        space.schemes = spec.schemes;
    if (spec.hasScenario) {
        space.scenarios = {campaign::cleanBaseline(
            spec.scenario.outagePeriodS, spec.scenario.outageOnFrac)};
        if (spec.scenario.kind != campaign::ScenarioKind::kClean)
            space.scenarios.push_back(spec.scenario);
    }
}

}  // namespace gecko::fault
