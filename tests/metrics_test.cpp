#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "metrics/bench_json.hpp"
#include "metrics/counter_field.hpp"
#include "metrics/json.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "sim/intermittent_sim.hpp"

namespace gecko::metrics {
namespace {

TEST(BenchJsonTest, ReportLeadsWithSchemaVersion)
{
    BenchReport report;
    report.figure = "fig99";
    std::string json = report.toJson();
    // schema_version is the first key so even a truncated record
    // identifies its format.
    EXPECT_EQ(json.rfind("{\"schema_version\":11,", 0), 0u) << json;
    JsonValue parsed;
    ASSERT_TRUE(parseJson(json, &parsed)) << json;
    EXPECT_EQ(parsed.getNumber("schema_version"),
              static_cast<double>(kBenchSchemaVersion));
    // Version-3/4 provenance keys are always present.
    EXPECT_EQ(parsed.getNumber("seed"), 0.0);
    EXPECT_EQ(parsed.getString("defense_mode"), "static");
    EXPECT_EQ(parsed.getString("exec_backend"), "block");
    // trace_out only appears when a trace was written.
    EXPECT_EQ(json.find("trace_out"), std::string::npos);
    report.traceOut = "out/trace.jsonl";
    ASSERT_TRUE(parseJson(report.toJson(), &parsed));
    EXPECT_EQ(parsed.getString("trace_out"), "out/trace.jsonl");
    // figure_data (v6) only appears when the bench supplied one, and
    // is spliced in raw (it is already JSON).
    EXPECT_EQ(json.find("figure_data"), std::string::npos);
    report.figureData = "{\"cells\":[1,2]}";
    EXPECT_NE(report.toJson().find("\"figure_data\":{\"cells\":[1,2]}"),
              std::string::npos);
}

TEST(BenchJsonTest, ReadersTolerateUnknownKeys)
{
    // A version-1 reader aggregating a version-2 record (or newer) must
    // skip keys it doesn't know and still find the ones it does — the
    // compatibility bench_all relies on.
    const std::string futureRecord =
        "{\"schema_version\":4,\"figure\":\"fig04\","
        "\"novel_key\":{\"nested\":[1,2]},\"threads\":4,"
        "\"trace_out\":\"t.jsonl\",\"sim_cycles\":123,"
        "\"status\":\"pass\"}";
    JsonValue record;
    ASSERT_TRUE(parseJson(futureRecord, &record));
    EXPECT_EQ(record.getNumber("sim_cycles"), 123.0);
    EXPECT_EQ(record.getNumber("threads"), 4.0);
    EXPECT_EQ(record.getString("status"), "pass");
    EXPECT_EQ(record.getNumber("schema_version"), 4.0);
    // Unknown keys read as absent, not as garbage.
    EXPECT_FALSE(record.getNumber("wall_s").has_value());
    // Legacy records without the version key read as version 1.
    JsonValue legacy;
    ASSERT_TRUE(parseJson("{\"figure\":\"fig04\"}", &legacy));
    EXPECT_EQ(legacy.getNumber("schema_version").value_or(1.0), 1.0);
}

TEST(BenchJsonTest, CounterKeysReadTheCounterSet)
{
    // The frozen key set: every listed name is a registry field (the
    // walk reaches all ten), and each key carries its own counter.
    std::vector<std::string> names;
    for (const BenchCounterKey& key : kBenchCounterKeys)
        names.emplace_back(key.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "quanta", "coalesced_quanta", "march_steps",
                         "replayed_completions", "steady_loop_iterations",
                         "point_reads", "exact_reads", "corrupted_restores",
                         "crc_rejects", "retries_exhausted"}));
    BenchReport report;
    report.counters.exec.cycles = 123;
    std::uint64_t next = 1000;
    std::set<std::string> walked;
    forEachBenchCounter([&](const BenchCounterKey& key, auto get) {
        get(report.counters) = ++next;
        walked.emplace(key.name);
    });
    EXPECT_EQ(walked, std::set<std::string>(names.begin(), names.end()));
    JsonValue json;
    ASSERT_TRUE(parseJson(report.toJson(), &json));
    EXPECT_EQ(json.getU64("sim_cycles"), 123u);
    next = 1000;
    forEachBenchCounter([&](const BenchCounterKey& key, auto) {
        EXPECT_EQ(json.getU64(key.name), ++next) << key.name;
    });
}

// ---------------------------------------------------------------------
// The JSON reader (metrics/json.hpp)
// ---------------------------------------------------------------------

/** `literal` decoded as one JSON string (nullopt if rejected). */
std::optional<std::string>
readString(const std::string& literal)
{
    JsonValue v;
    if (!parseJson(literal, &v) || v.type != JsonValue::kString)
        return std::nullopt;
    return v.str;
}

TEST(JsonReaderTest, EveryEscapedByteRoundTrips)
{
    // Whatever jsonEscape writes — \uXXXX for control bytes included —
    // the reader must decode back, or a journal note carrying a '\r'
    // from an exception message would read as a damaged line.
    const auto roundTrip = [](const std::string& text) {
        std::string literal = "\"";
        literal += jsonEscape(text);
        literal += '"';
        return readString(literal);
    };
    std::string all;
    for (int c = 0x01; c <= 0x7f; ++c) {
        const std::string one(1, static_cast<char>(c));
        EXPECT_EQ(roundTrip(one), one) << "byte 0x" << std::hex << c;
        all += one;
    }
    EXPECT_EQ(roundTrip(all), all);
    // Multi-byte escapes decode to UTF-8; raw UTF-8 passes through.
    EXPECT_EQ(readString("\"\\u00e9\\u20ac\""), "\xc3\xa9\xe2\x82\xac");
    EXPECT_EQ(readString("\"\\ud83d\\ude00\""), "\xf0\x9f\x98\x80");
    EXPECT_EQ(readString("\"\xc3\xa9\""), "\xc3\xa9");
    EXPECT_EQ(readString("\"\\b\\f\\r\\/\""), "\b\f\r/");
}

TEST(JsonReaderTest, RejectsLaxSyntax)
{
    for (const char* bad :
         {"{\"a\":1,}", "[1,]", "{\"a\":1 \"b\":2}", "{\"a\":1,\"a\":2}",
          "01", "+1", ".5", "1.", "1e", "-", "nan", "inf", "0x10",
          "'single'", "\"tab\there\"", "\"\\x41\"", "\"\\ud800\"",
          "\"\\ude00\"", "\"\\u12\"", "\"open", "tru", "{} {}",
          "{\"a\":1}x", "1e999", "", " "}) {
        JsonValue v;
        v.type = JsonValue::kBool;
        EXPECT_FALSE(parseJson(bad, &v)) << bad;
        EXPECT_EQ(v.type, JsonValue::kNull) << "not reset: " << bad;
    }
    // Nesting is bounded, not recursed into without limit.
    JsonValue v;
    EXPECT_TRUE(parseJson(std::string(200, '[') + std::string(200, ']'), &v));
    EXPECT_FALSE(
        parseJson(std::string(100000, '[') + std::string(100000, ']'), &v));
    // Whitespace is exactly the four JSON characters.
    EXPECT_TRUE(parseJson(" \t\r\n{ \"a\" : [ 1 , -0.5e+3 ] }\n", &v));
    EXPECT_EQ(v.find("a")->arr[1].num, -500.0);
    EXPECT_FALSE(parseJson("\v{}", &v));
}

TEST(JsonReaderTest, IntegersReadFromTheLexeme)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("{\"max\":18446744073709551615,"
                          "\"odd\":9007199254740993,\"over\":"
                          "18446744073709551616,\"neg\":-1,\"exp\":1e3,"
                          "\"frac\":1.0,\"str\":\"7\"}",
                          &v));
    EXPECT_EQ(v.getU64("max"), 18446744073709551615ull);
    // 2^53 + 1: a double round trip would return 2^53.
    EXPECT_EQ(v.getU64("odd"), 9007199254740993ull);
    for (const char* key : {"over", "neg", "exp", "frac", "str", "absent"})
        EXPECT_FALSE(v.getU64(key).has_value()) << key;
    EXPECT_EQ(v.getNumber("frac"), 1.0);
    EXPECT_EQ(v.getNumber("exp"), 1000.0);
    EXPECT_FALSE(v.getNumber("str").has_value());
    EXPECT_EQ(v.getString("str"), "7");
    EXPECT_FALSE(v.getString("max").has_value());
    std::uint64_t n = 0;
    EXPECT_TRUE(parseU64("0042", &n));
    EXPECT_EQ(n, 42u);
    for (const char* bad : {"", "-1", "+1", "1 ", "4e2", "18446744073709551616"})
        EXPECT_FALSE(parseU64(bad, &n)) << bad;
}

TEST(JsonReaderTest, ErrorsNameLineAndColumn)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{\n  \"a\": 1,\n  \"b\": tru\n}", &v, &error));
    EXPECT_EQ(error, "invalid literal (line 3, column 8)");
    error.clear();
    EXPECT_FALSE(parseJson("{\"k\":1,\"k\":2}", &v, &error));
    EXPECT_NE(error.find("duplicate key \"k\""), std::string::npos) << error;
}

TEST(JsonlReaderTest, CountsTornTailUnparseableAndRejectedLines)
{
    const std::string path = ::testing::TempDir() + "/gecko_jsonl_reader_" +
                             std::to_string(::getpid()) + ".jsonl";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "{\"i\":0}\n"
            << "\n"                      // skipped, not damage
            << "{\"i\":1\n"              // unparseable
            << "{\"i\":2,\"bad\":true}\n"  // rejected by the caller
            << "{\"i\":3}\n"
            << "{\"i\":4";                // torn tail
    }
    std::vector<double> seen;
    const std::uint64_t torn =
        readJsonl(path, [&](const JsonValue& v) {
            seen.push_back(v.getNumber("i").value_or(-1));
            return !v.find("bad");
        });
    EXPECT_EQ(torn, 3u);
    EXPECT_EQ(seen, (std::vector<double>{0, 2, 3}));
    std::remove(path.c_str());
    EXPECT_EQ(readJsonl(path, [](const JsonValue&) { return true; }), 0u);
}

TEST(CounterRegistryTest, NamesAreUniqueAndOnlyFastPathDiagnosticsUnarchived)
{
    // Wire names double as campaign keys and oracle messages, so they
    // must be unique across the four field lists.
    std::set<std::string> names;
    std::vector<std::string> unarchived;
    sim::Counters::forEachField([&](const CounterField& field, auto) {
        EXPECT_TRUE(names.insert(field.name).second) << field.name;
        if (!field.archived)
            unarchived.push_back(field.name);
    });
    EXPECT_EQ(names.size(), 6u + 22u + 15u + 13u);
    EXPECT_EQ(unarchived,
              (std::vector<std::string>{"quanta", "coalesced_quanta",
                                        "coalesced_bursts", "sleep_samples",
                                        "coalesced_sleep_samples",
                                        "march_steps",
                                        "replayed_completions",
                                        "steady_loop_iterations",
                                        "point_reads", "exact_reads"}));
}

TEST(CounterRegistryTest, SumsAddCountersAndLeaveTheDoubles)
{
    sim::Counters total;
    sim::Counters run;
    run.exec.cycles = 7;
    run.sim.quanta = 3;
    run.runtime.rollbacks = 2;
    run.defense.escalations = 1;
    run.defense.peakEnergyDebtJ = 2.0;
    total += run;
    total += run;
    EXPECT_EQ(total.exec.cycles, 14u);
    EXPECT_EQ(total.sim.quanta, 6u);
    EXPECT_EQ(total.runtime.rollbacks, 4u);
    EXPECT_EQ(total.defense.escalations, 2u);
    EXPECT_EQ(total.defense.peakEnergyDebtJ, 0.0);
    EXPECT_EQ(total.defense.firstEscalationT, -1.0);
}

TEST(StatsTest, Means)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(minimum({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(maximum({3, 1, 2}), 3.0);
}

TEST(StatsTest, SeriesArgExtrema)
{
    Series s{"t", {1, 2, 3, 4}, {5.0, 1.0, 9.0, 2.0}};
    EXPECT_EQ(argminY(s), 1u);
    EXPECT_EQ(argmaxY(s), 2u);
}

TEST(TableTest, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
    // All rows share the same width up to the second column.
    auto col = out.find("value");
    auto row1 = out.find("1", out.find("x"));
    EXPECT_NE(col, std::string::npos);
    EXPECT_NE(row1, std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(0.413, 1), "41.3%");
    EXPECT_EQ(fmtMhz(27e6), "27 MHz");
    EXPECT_EQ(fmtMhz(16.5e6, 1), "16.5 MHz");
}

}  // namespace
}  // namespace gecko::metrics
