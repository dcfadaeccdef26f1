#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/bench_json.hpp"
#include "metrics/counter_field.hpp"
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
    EXPECT_EQ(json.rfind("{\"schema_version\":7,", 0), 0u) << json;
    EXPECT_EQ(jsonNumber(json, "schema_version"),
              static_cast<double>(kBenchSchemaVersion));
    // Version-3/4 provenance keys are always present.
    EXPECT_EQ(jsonNumber(json, "seed"), 0.0);
    EXPECT_EQ(jsonString(json, "defense_mode"), "static");
    EXPECT_EQ(jsonString(json, "exec_backend"), "block");
    // trace_out only appears when a trace was written.
    EXPECT_EQ(json.find("trace_out"), std::string::npos);
    report.traceOut = "out/trace.jsonl";
    EXPECT_EQ(jsonString(report.toJson(), "trace_out"),
              "out/trace.jsonl");
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
    EXPECT_EQ(jsonNumber(futureRecord, "sim_cycles"), 123.0);
    EXPECT_EQ(jsonNumber(futureRecord, "threads"), 4.0);
    EXPECT_EQ(jsonString(futureRecord, "status"), "pass");
    EXPECT_EQ(jsonNumber(futureRecord, "schema_version"), 4.0);
    // Unknown keys read as absent, not as garbage.
    EXPECT_FALSE(jsonNumber(futureRecord, "wall_s").has_value());
    // Legacy records without the version key read as version 1.
    EXPECT_EQ(jsonNumber("{\"figure\":\"fig04\"}", "schema_version")
                  .value_or(1.0),
              1.0);
}

TEST(BenchJsonTest, CounterKeysReadTheCounterSet)
{
    BenchReport report;
    report.counters.exec.cycles = 123;
    report.counters.sim.quanta = 45;
    report.counters.sim.coalescedQuanta = 6;
    report.counters.runtime.corruptedRestores = 7;
    report.counters.runtime.crcRejects = 8;
    report.counters.runtime.retriesExhausted = 9;
    const std::string json = report.toJson();
    EXPECT_EQ(jsonNumber(json, "sim_cycles"), 123.0);
    EXPECT_EQ(jsonNumber(json, "quanta"), 45.0);
    EXPECT_EQ(jsonNumber(json, "coalesced_quanta"), 6.0);
    EXPECT_EQ(jsonNumber(json, "corrupted_restores"), 7.0);
    EXPECT_EQ(jsonNumber(json, "crc_rejects"), 8.0);
    EXPECT_EQ(jsonNumber(json, "retries_exhausted"), 9.0);
}

TEST(CounterRegistryTest, NamesAreUniqueAndOnlyBurstDiagnosticsUnarchived)
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
    EXPECT_EQ(names.size(), 6u + 16u + 15u + 13u);
    EXPECT_EQ(unarchived,
              (std::vector<std::string>{"quanta", "coalesced_quanta",
                                        "coalesced_bursts",
                                        "coalesced_sleep_samples"}));
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
