#include "fault/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

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

/** The first spec diagnostic, which parseSpec() returns as its error. */
struct SpecError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

[[noreturn]] void
fail(const std::string& what)
{
    throw SpecError("spec: " + what);
}

[[noreturn]] void
failAt(const std::string& path, const std::string& what)
{
    fail(what + " at " + path);
}

/** Reads the value of one member, found at `path`; throws SpecError. */
using Reader =
    std::function<void(const JsonValue& v, const std::string& path)>;

/** One listed key of a spec object and the reader of its value. */
struct Field {
    const char* key;
    Reader read;
};

/**
 * The one strict object walk: `v` must be an object whose every member
 * is a listed key.  Members are read in file order under their
 * `$.path`, so the first error in the file is the one reported.
 */
void
walk(const JsonValue& v, const std::string& path,
     const std::vector<Field>& fields)
{
    if (v.type != JsonValue::kObject)
        failAt(path, "expected an object");
    for (const auto& [key, val] : v.members) {
        const auto field =
            std::find_if(fields.begin(), fields.end(),
                         [&key](const Field& f) { return key == f.key; });
        if (field == fields.end())
            failAt(path + "." + key, "unknown field \"" + key + "\"");
        field->read(val, path + "." + key);
    }
}

/** A nested object: its table, then its cross-field rule, which
 *  returns the diagnostic of a broken object or nullptr. */
Reader
object(std::vector<Field> fields,
       std::function<const char*()> rule = nullptr)
{
    return [fields = std::move(fields), rule](const JsonValue& v,
                                              const std::string& path) {
        walk(v, path, fields);
        if (const char* broken = rule ? rule() : nullptr)
            failAt(path, broken);
    };
}

/** An integer in [lo, hi]. */
Reader
integer(int* out, int lo, int hi)
{
    return [=](const JsonValue& v, const std::string& path) {
        if (v.type != JsonValue::kNumber || v.num != std::floor(v.num))
            failAt(path, "expected an integer");
        if (v.num < lo || v.num > hi)
            failAt(path, "value out of range");
        *out = static_cast<int>(v.num);
    };
}

/** An unsigned 64-bit integer, read from its lexeme. */
Reader
u64(std::uint64_t* out)
{
    return [=](const JsonValue& v, const std::string& path) {
        const std::optional<std::uint64_t> u = v.asU64();
        if (!u)
            failAt(path, "expected an unsigned integer");
        *out = *u;
    };
}

/** The lower bound of a ranged number. */
enum class Floor { kNone, kZero, kAboveZero };

/** A number, optionally >= 0 (kZero) or > 0 (kAboveZero). */
Reader
number(double* out, Floor floor = Floor::kNone)
{
    return [=](const JsonValue& v, const std::string& path) {
        if (v.type != JsonValue::kNumber)
            failAt(path, "expected a number");
        if ((floor == Floor::kZero && v.num < 0.0) ||
            (floor == Floor::kAboveZero && v.num <= 0.0))
            failAt(path, "value out of range");
        *out = v.num;
    };
}

/** A string. */
Reader
text(std::string* out)
{
    return [=](const JsonValue& v, const std::string& path) {
        if (v.type != JsonValue::kString)
            failAt(path, "expected a string");
        *out = v.str;
    };
}

/** A non-empty array of non-empty strings, or of numbers. */
template <typename T>
Reader
list(std::vector<T>* out)
{
    return [=](const JsonValue& v, const std::string& path) {
        constexpr bool kStrings = std::is_same_v<T, std::string>;
        const char* what = kStrings ? "expected a non-empty string array"
                                    : "expected a non-empty number array";
        if (v.type != JsonValue::kArray || v.arr.empty())
            failAt(path, what);
        out->clear();
        for (const JsonValue& e : v.arr) {
            if constexpr (kStrings) {
                if (e.type != JsonValue::kString || e.str.empty())
                    failAt(path, what);
                out->push_back(e.str);
            } else {
                if (e.type != JsonValue::kNumber)
                    failAt(path, what);
                out->push_back(e.num);
            }
        }
    };
}

/** A non-empty list of names, each mapped through `fromName`. */
template <typename T>
Reader
nameList(std::vector<T>* out, bool (*fromName)(const std::string&, T*),
         const std::string& noun)
{
    return [=](const JsonValue& v, const std::string& path) {
        std::vector<std::string> given;
        list(&given)(v, path);
        out->clear();
        for (const std::string& n : given) {
            T value;
            if (!fromName(n, &value))
                failAt(path, "unknown " + noun + " \"" + n + "\"");
            out->push_back(value);
        }
    };
}

/** Read `root` into `spec`, whose fields start at their defaults. */
void
readSpec(const JsonValue& root, FaultSpec* spec)
{
    if (root.type != JsonValue::kObject)
        fail("top-level value must be an object");
    campaign::Scenario& sc = spec->scenario;
    using campaign::ScenarioKind;

    // Schema-v2 scenario members, in file order.  They are gated after
    // the walk: the version key may legally follow the scenario.
    std::vector<std::string> v2Fields;
    auto v2 = [&v2Fields](Reader read) -> Reader {
        return [&v2Fields, read](const JsonValue& v,
                                 const std::string& path) {
            v2Fields.push_back(path);
            read(v, path);
        };
    };
    const Reader version = [spec](const JsonValue& v,
                                  const std::string& path) {
        integer(&spec->version, 0, 1 << 20)(v, path);
        if (spec->version != 1 && spec->version != 2)
            fail("unsupported version " + std::to_string(spec->version) +
                 " (this build reads versions 1 and 2)");
    };
    const Reader kind = [&sc](const JsonValue& v, const std::string& path) {
        std::string name;
        text(&name)(v, path);
        for (ScenarioKind k : {ScenarioKind::kClean, ScenarioKind::kTone,
                               ScenarioKind::kBurst})
            if (name == campaign::scenarioName(k))
                sc.kind = k;
        if (name != campaign::scenarioName(sc.kind))
            failAt(path, "kind must be clean, tone or burst");
    };
    const Reader grid = object(
        {{"rows", integer(&sc.gridRows, 1, 4096)},
         {"cols", integer(&sc.gridCols, 1, 4096)},
         {"row", integer(&sc.gridRow, 0, 4095)},
         {"col", integer(&sc.gridCol, 0, 4095)}},
        [&sc]() -> const char* {
            if (sc.gridRows < 1 || sc.gridCols < 1)
                return "rows and cols are required";
            if (sc.gridRow >= sc.gridRows || sc.gridCol >= sc.gridCols)
                return "cell (row, col) outside the grid";
            return nullptr;
        });
    const Reader burst = object(
        {{"count", integer(&sc.burstCount, 1, 1000)},
         {"on_s", number(&sc.burstOnS)},
         {"gap_s", number(&sc.burstGapS)}},
        [&sc]() -> const char* {
            if (sc.burstCount < 1 || sc.burstOnS <= 0.0 ||
                sc.burstGapS < 0.0)
                return "count >= 1 and on_s > 0 are required";
            return nullptr;
        });
    const Reader duty = object(
        {{"period_s", number(&sc.dutyPeriodS)},
         {"on_frac", number(&sc.dutyOnFrac)}},
        [&sc]() -> const char* {
            if (sc.dutyPeriodS <= 0.0 || sc.dutyOnFrac <= 0.0 ||
                sc.dutyOnFrac > 1.0)
                return "period_s > 0 and on_frac in (0, 1] are required";
            return nullptr;
        });
    const Reader outage = object(
        {{"period_s", number(&sc.outagePeriodS)},
         {"on_frac", number(&sc.outageOnFrac)}},
        [&sc]() -> const char* {
            if (sc.outagePeriodS <= 0.0 || sc.outageOnFrac <= 0.0 ||
                sc.outageOnFrac >= 1.0)
                return "period_s > 0 and on_frac in (0, 1) are required";
            return nullptr;
        });
    // A read grid has rows >= 1 and a read burst count >= 1, so those
    // fields say whether the scenario named a grid or a burst.
    const Reader scenario = object(
        {{"kind", kind},
         {"freq_hz", number(&sc.freqHz, Floor::kAboveZero)},
         {"power_dbm", number(&sc.powerDbm)},
         {"grid", grid},
         {"burst", burst},
         {"duty", v2(duty)},
         {"phase_s", v2(number(&sc.phaseS, Floor::kZero))},
         {"envelope", v2(list(&sc.envelopeDbm))},
         {"outage", v2(outage)}},
        [&sc]() -> const char* {
            const bool clean = sc.kind == ScenarioKind::kClean;
            if (clean && (sc.gridRows > 0 || sc.burstCount > 0))
                return "grid/burst require a tone or burst scenario";
            if (sc.burstCount > 0 && sc.kind != ScenarioKind::kBurst)
                return "burst schedule requires kind \"burst\"";
            if (clean && (sc.dutyPeriodS > 0.0 || sc.phaseS > 0.0 ||
                          !sc.envelopeDbm.empty()))
                return "duty/phase_s/envelope require a tone or burst "
                       "scenario";
            return nullptr;
        });
    const Reader campaignSection = object(
        {{"cases", integer(&spec->cases, 1, 100000000)},
         {"corpus_per_group", integer(&spec->corpusPerGroup, 1, 100000)},
         {"workloads", list(&spec->workloads)},
         {"schemes",
          nameList(&spec->schemes, compiler::schemeFromName, "scheme")},
         {"injectors",
          nameList(&spec->injectors, injectorFromName, "injector")},
         {"sim_budget_s", number(&spec->simBudgetS, Floor::kAboveZero)},
         {"watchdog", u64(&spec->watchdog)}});
    const Reader engine = object(
        {{"devices", list(&spec->devices)},
         {"seeds", integer(&spec->seeds, 1, 100000)},
         {"sim_s", number(&spec->simS, Floor::kAboveZero)},
         {"slice_s", number(&spec->sliceS, Floor::kZero)}});

    walk(root, "$",
         {{"version", version},
          {"name", text(&spec->name)},
          {"seed", u64(&spec->seed)},
          {"campaign", campaignSection},
          {"scenario", scenario},
          {"engine", engine}});
    if (!root.find("version"))
        fail("missing required field \"version\"");
    if (spec->version < 2 && !v2Fields.empty())
        fail("field " + v2Fields.front() +
             " requires version 2 (spec declares version " +
             std::to_string(spec->version) + ")");
    spec->hasSeed = root.find("seed") != nullptr;
    spec->hasCampaign = root.find("campaign") != nullptr;
    spec->hasScenario = root.find("scenario") != nullptr;
    spec->hasEngine = root.find("engine") != nullptr;
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
    *out = FaultSpec{};
    JsonValue root;
    std::string err;
    try {
        if (!metrics::parseJson(text, &root, &err))
            fail(err);
        readSpec(root, out);
    } catch (const SpecError& e) {
        if (error)
            *error = e.what();
        return false;
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
