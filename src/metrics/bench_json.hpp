#ifndef GECKO_METRICS_BENCH_JSON_HPP_
#define GECKO_METRICS_BENCH_JSON_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/counter_field.hpp"
#include "metrics/json.hpp"
#include "sim/intermittent_sim.hpp"

/**
 * @file
 * Machine-readable benchmark telemetry (`BENCH_*.json`).
 *
 * Each figure/table binary can emit one JSON object describing its
 * sweep executions: wall time, task counts, thread count, and the
 * aggregate simulated machine cycles per wall second (the interpreter
 * throughput metric the perf trajectory tracks).  `bench_all`
 * aggregates the per-figure objects into `BENCH_sweeps.json` and
 * compares against a recorded serial baseline.
 *
 * The format is intentionally small and flat; readers parse it with
 * metrics::parseJson (metrics/json.hpp).
 */

namespace gecko::metrics {

/** Telemetry of one runSweep call. */
struct SweepRecord {
    std::string label;
    /// Sweep points executed.
    std::size_t tasks = 0;
    /// Worker threads of the pool that ran the sweep.
    int threads = 1;
    /// Wall time of the whole sweep (s).
    double wallS = 0.0;
    /// Sum of per-task wall times (s); taskS / wallS ~ achieved
    /// parallelism.
    double taskS = 0.0;
};

/**
 * Wire-format version of BenchReport::toJson().  History:
 *  - 1: initial format (implicit — records without a
 *    `schema_version` key are version 1).
 *  - 2: added `schema_version` itself and the optional `trace_out`
 *    path of the event-trace file written alongside the report.
 *  - 3: added `seed` (effective GECKO_SEED, 0 = unseeded) and
 *    `defense_mode` (the run's defense configuration: "static" for the
 *    paper's fixed detectors, "adaptive" when the online controller
 *    was armed).  `threads` was already the effective pool width.
 *  - 4: added `exec_backend` (the sim::Machine execution tier the run
 *    used: "step" or "block"; older records may name the since-removed
 *    "fast" tier) so throughput numbers are attributable to a dispatch
 *    strategy.
 *  - 5: added the quantum-loop telemetry `quanta`, `coalesced_quanta`
 *    and `quanta_per_s` (monitor-sample quanta simulated, the subset
 *    absorbed by the coalescing fast path — DESIGN.md §14 — and the
 *    quantum throughput) so coalescing effectiveness is recorded next
 *    to the cycle rate it improves.
 *  - 6: added the optional `figure_data` object — raw per-figure
 *    payload (e.g. the per-cell susceptibility map of fig_spatial_map)
 *    emitted verbatim by the bench that produced it.
 *  - 7: fig_adversarial's defense-vs-best-attack matrix rides in
 *    `figure_data`, and the campaign aggregate it embeds gained the
 *    per-group `commits` counter (campaign schema v5).
 *  - 8: added `replayed_completions`, the completions the block tier
 *    applied from its record instead of executing them (completion
 *    replay, DESIGN.md §12).
 *  - 9: added `steady_loop_iterations`, the loop iterations the block
 *    tier applied in closed form instead of executing them (steady-loop
 *    fast-forward, DESIGN.md §12).
 *  - 10: added `point_reads` and `exact_reads`, the point reads formed
 *    under a keyed tone and those that called glibc `sin` (zone reads,
 *    DESIGN.md §14).
 *  - 11: added `march_steps`, the steps burst marches stepped, committed
 *    or not (DESIGN.md §14), beside the `coalesced_quanta` they commit.
 * Readers must tolerate unknown keys so newer records keep
 * aggregating under older readers: they look up the keys they know in
 * the parsed object and never reject one they don't.
 */
inline constexpr int kBenchSchemaVersion = 11;

/** One bench-JSON counter key (beside `sim_cycles`). */
struct BenchCounterKey {
    /// Counter-registry name (DESIGN.md "Counters"), also the key.
    std::string_view name;
    /// bench_all's suite line writes the sum as `total_<name>` (the
    /// stepping diagnostics); false keeps the name (the defence
    /// counters).
    bool suiteTotal;
};

/// The bench-JSON counter keys besides `sim_cycles`.  Explicit: the
/// format is frozen, so a new registry field joins it only when listed
/// here.  BenchReport::toJson writes them and bench_all reads, sums
/// and renders them, through forEachBenchCounter.
inline constexpr BenchCounterKey kBenchCounterKeys[] = {
    {"quanta", true},
    {"coalesced_quanta", true},
    {"march_steps", true},
    {"replayed_completions", true},
    {"steady_loop_iterations", true},
    {"point_reads", true},
    {"exact_reads", true},
    {"corrupted_restores", false},
    {"crc_rejects", false},
    {"retries_exhausted", false}};

/** `fn(key, get)` per kBenchCounterKeys entry, in field-list order;
 *  `get(c)` is that counter of a sim::Counters `c`. */
template <class Fn>
void
forEachBenchCounter(Fn&& fn)
{
    sim::Counters::forEachField(
        [&fn](const CounterField& field, auto get) {
            for (const BenchCounterKey& key : kBenchCounterKeys)
                if (key.name == field.name)
                    fn(key, get);
        });
}

/** Telemetry of one bench binary run. */
struct BenchReport {
    std::string figure;
    int threads = 1;
    unsigned hostCores = 1;
    /// Effective global seed of the run (GECKO_SEED / --seed=; 0 =
    /// unseeded historical sequences).
    std::uint64_t seed = 0;
    /// Defense configuration the victims ran with: "static" (paper
    /// default) or "adaptive" (online controller armed).
    std::string defenseMode = "static";
    /// Execution tier the victims' machines dispatched with ("step" or
    /// "block"; see sim::ExecBackend).
    std::string execBackend = "block";
    /// Process wall time from bench::init to report write (s).
    double wallS = 0.0;
    /// Counter totals of every simulation the bench ran; the report
    /// names eleven: `sim_cycles` (`exec.cycles`) and kBenchCounterKeys.
    sim::Counters counters;
    /// Bench verdict: "pass", "fail", or "" (bench has no pass/fail
    /// semantics — treated as pass by aggregation).
    std::string status;
    /// Path of the event-trace file written for this run ("" = none).
    std::string traceOut;
    /// Raw per-figure JSON payload emitted verbatim as `figure_data`
    /// (schema v6); "" = none.  The bench owns the sub-schema.
    std::string figureData;
    std::vector<SweepRecord> sweeps;

    /** Render as a single JSON object. */
    std::string toJson() const;
};

}  // namespace gecko::metrics

#endif  // GECKO_METRICS_BENCH_JSON_HPP_
