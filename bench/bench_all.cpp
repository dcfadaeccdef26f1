#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exp/thread_pool.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/json.hpp"
#include "metrics/table.hpp"

/**
 * @file
 * Driver that runs every figure/table binary, collects the per-figure
 * JSON telemetry (`GECKO_BENCH_JSON`), and aggregates it into a single
 * `BENCH_sweeps.json` with wall times, simulated-cycle throughput, and
 * speedup vs a serial baseline.
 *
 * Usage:  bench_all [--baseline] [--quick] [--threads=N] [--out=FILE]
 *                   [figure...]
 *   --baseline   also run each figure with GECKO_THREADS=1 and record
 *                the serial wall time (the speedup denominator)
 *   --quick      single-pass telemetry sweep: run every figure once,
 *                skip the serial-baseline pass even if requested, and
 *                warn if the pass exceeds the 30 s quick budget
 *   --threads=N  thread count for the parallel pass, 1..1024 (default:
 *                the GECKO_THREADS env, else all host cores); anything
 *                else is a diagnostic and exit 2
 *   --out=FILE   aggregate output path (default: BENCH_sweeps.json)
 *   figure...    subset of figures to run (default: all)
 */

namespace {

const std::vector<std::string> kFigures = {
    "fig04_dpi_sweep",  "fig05_remote_adc", "fig07_remote_comp",
    "fig08_distance",   "fig09_realtime",   "fig11_overhead",
    "fig12_pruning",    "fig13_detection",  "fig14_harvesting",
    "fig15_capacitor",  "fig_spatial_map",  "table1_devices",
    "table2_comparison", "table3_ckpt_counts", "ablation_detection",
    "ablation_pruning", "ablation_wcet",    "extension_wearout",
    "fault_campaign",   "campaign_runner",  "fig_adversarial"};

/// The counter keys of a child's report, carried per figure and summed
/// by the suite (0 when a record predates a key).
enum Counter {
    kSimCycles, kQuanta, kCoalescedQuanta, kReplayedCompletions,
    kSteadyLoopIterations, kPointReads, kExactReads, kCorruptedRestores,
    kCrcRejects, kRetriesExhausted, kCounterKeys
};
constexpr const char* kCounterKey[kCounterKeys] = {
    "sim_cycles",           "quanta",
    "coalesced_quanta",     "replayed_completions",
    "steady_loop_iterations", "point_reads",
    "exact_reads",          "corrupted_restores",
    "crc_rejects",          "retries_exhausted"};
using CounterValues = std::array<std::uint64_t, kCounterKeys>;

struct FigureResult {
    std::string figure;
    /// Child telemetry schema version; records predating the
    /// `schema_version` key are version 1.
    int schemaVersion = 1;
    double wallS = 0.0;
    double serialWallS = 0.0;
    CounterValues counters{};
    /// "pass" or "fail": exit status combined with the bench's own
    /// verdict from its JSON telemetry (benches without a verdict
    /// report "pass" when they exit 0).
    std::string status = "fail";
    /// Execution tier the child reported ("step"/"block"; "unknown"
    /// for records predating schema v4).
    std::string execBackend = "unknown";
    bool ok = false;
};

std::string
dirName(const std::string& path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Run one figure binary with telemetry redirected to `jsonPath`.
 * Returns the child's wall time in seconds, or a negative value when
 * the child failed.
 */
double
runFigure(const std::string& binary, const std::string& jsonPath,
          int threads, const std::string& extraArgs = "")
{
    std::string cmd = "GECKO_THREADS=" + std::to_string(threads) +
                      " GECKO_BENCH_JSON='" + jsonPath + "' '" + binary +
                      "'" + extraArgs + " > /dev/null";
    auto t0 = std::chrono::steady_clock::now();
    int rc = std::system(cmd.c_str());
    auto t1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(t1 - t0).count();
    return rc == 0 ? wall : -wall;
}

/**
 * Render the suite aggregate from the figures finished so far.
 * `forceStatus` overrides the pass/fail verdict (the signal-flush
 * path stamps "interrupted" so a partial aggregate is never mistaken
 * for a completed run).
 */
std::string
renderSuiteJson(const std::vector<FigureResult>& results, int threads,
                const std::string& forceStatus)
{
    double totalWall = 0.0, totalSerial = 0.0;
    CounterValues total{};
    int failures = 0;
    for (const FigureResult& r : results) {
        if (r.status != "pass")
            ++failures;
        totalWall += r.wallS;
        totalSerial += r.serialWallS;
        for (int c = 0; c < kCounterKeys; ++c)
            total[c] += r.counters[c];
    }
    const auto perS = [](std::uint64_t n, double wall) {
        return wall > 0 ? static_cast<double>(n) / wall : 0.0;
    };

    // One backend name for the whole suite when every child agrees
    // (the usual case: children inherit GECKO_EXEC); "mixed" otherwise.
    // Children without telemetry ("unknown" — static tables that never
    // simulate) don't break uniformity.
    std::string suiteBackend = "unknown";
    for (const FigureResult& r : results) {
        if (r.execBackend == "unknown")
            continue;
        if (suiteBackend == "unknown")
            suiteBackend = r.execBackend;
        else if (r.execBackend != suiteBackend)
            suiteBackend = "mixed";
    }

    unsigned hw = std::thread::hardware_concurrency();
    std::ostringstream os;
    os << "{\"schema_version\":" << gecko::metrics::kBenchSchemaVersion
       << ",\"suite\":\"gecko-bench\",\"exec_backend\":\""
       << gecko::metrics::jsonEscape(suiteBackend)
       << "\",\"threads\":" << threads
       << ",\"host_cores\":" << (hw >= 1 ? hw : 1)
       << ",\"total_wall_s\":" << gecko::metrics::fmt(totalWall, 3);
    if (totalSerial > 0)
        os << ",\"total_serial_wall_s\":"
           << gecko::metrics::fmt(totalSerial, 3) << ",\"speedup\":"
           << gecko::metrics::fmt(totalSerial / totalWall, 3);
    os << ",\"total_sim_cycles\":" << total[kSimCycles]
       << ",\"sim_cycles_per_s\":"
       << gecko::metrics::fmt(perS(total[kSimCycles], totalWall), 0)
       << ",\"total_quanta\":" << total[kQuanta]
       << ",\"total_coalesced_quanta\":" << total[kCoalescedQuanta]
       << ",\"total_replayed_completions\":" << total[kReplayedCompletions]
       << ",\"total_steady_loop_iterations\":"
       << total[kSteadyLoopIterations]
       << ",\"total_point_reads\":" << total[kPointReads]
       << ",\"total_exact_reads\":" << total[kExactReads]
       << ",\"quanta_per_s\":"
       << gecko::metrics::fmt(perS(total[kQuanta], totalWall), 0)
       << ",\"failures\":" << failures << ",\"status\":\""
       << (forceStatus.empty() ? (failures == 0 ? "pass" : "fail")
                               : forceStatus.c_str())
       << "\",\"corrupted_restores\":" << total[kCorruptedRestores]
       << ",\"crc_rejects\":" << total[kCrcRejects]
       << ",\"retries_exhausted\":" << total[kRetriesExhausted]
       << ",\"figures\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const FigureResult& r = results[i];
        if (i)
            os << ",";
        os << "{\"figure\":\"" << gecko::metrics::jsonEscape(r.figure)
           << "\",\"schema_version\":" << r.schemaVersion
           << ",\"ok\":" << (r.ok ? "true" : "false") << ",\"status\":\""
           << gecko::metrics::jsonEscape(r.status)
           << "\",\"wall_s\":" << gecko::metrics::fmt(r.wallS, 3);
        if (r.serialWallS > 0)
            os << ",\"serial_wall_s\":"
               << gecko::metrics::fmt(r.serialWallS, 3) << ",\"speedup\":"
               << gecko::metrics::fmt(
                      r.wallS > 0 ? r.serialWallS / r.wallS : 0.0, 3);
        const CounterValues& c = r.counters;
        os << ",\"sim_cycles\":" << c[kSimCycles]
           << ",\"sim_cycles_per_s\":"
           << gecko::metrics::fmt(perS(c[kSimCycles], r.wallS), 0)
           << ",\"quanta\":" << c[kQuanta]
           << ",\"coalesced_quanta\":" << c[kCoalescedQuanta]
           << ",\"replayed_completions\":" << c[kReplayedCompletions]
           << ",\"steady_loop_iterations\":" << c[kSteadyLoopIterations]
           << ",\"point_reads\":" << c[kPointReads]
           << ",\"exact_reads\":" << c[kExactReads]
           << ",\"exec_backend\":\""
           << gecko::metrics::jsonEscape(r.execBackend)
           << "\",\"corrupted_restores\":" << c[kCorruptedRestores]
           << ",\"crc_rejects\":" << c[kCrcRejects]
           << ",\"retries_exhausted\":" << c[kRetriesExhausted]
           << "}";
    }
    os << "]}";
    return os.str();
}

/** Shared with the signal watcher (guarded by `mutex`). */
struct SuiteState {
    std::mutex mutex;
    std::vector<FigureResult> results;
    std::string outPath = "BENCH_sweeps.json";
    int threads = 1;
};

SuiteState&
suiteState()
{
    static SuiteState s;
    return s;
}

/**
 * SIGINT/SIGTERM → write the aggregate of whatever figures completed,
 * stamped "interrupted", then die with the conventional 128+sig.  The
 * handler runs on bench_util's sigwait watcher, so taking the mutex and
 * doing file I/O here is safe.
 */
void
installSuiteSignalFlush()
{
    gecko::bench::detail::watchSignals([](int sig) {
        SuiteState& st = suiteState();
        std::lock_guard<std::mutex> lock(st.mutex);
        std::ofstream out(st.outPath);
        if (out) {
            out << renderSuiteJson(st.results, st.threads, "interrupted")
                << "\n";
            // _Exit skips destructors: flush the stream by hand or the
            // partial aggregate dies in the ofstream buffer.
            out.close();
        }
        std::_Exit(128 + sig);
    });
}

}  // namespace

int
main(int argc, char** argv)
{
    bool baseline = false;
    bool quick = false;
    std::string outPath = "BENCH_sweeps.json";
    int threads = gecko::exp::ThreadPool::defaultThreads();
    std::vector<std::string> figures;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--baseline") {
            baseline = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = gecko::bench::flagValue(
                arg, 1, gecko::exp::ThreadPool::kMaxThreads);
        } else if (arg.rfind("--out=", 0) == 0) {
            outPath = arg.substr(6);
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown flag: " << arg << "\n";
            return 2;
        } else {
            figures.push_back(arg);
        }
    }
    if (figures.empty())
        figures = kFigures;
    if (quick)
        baseline = false;

    const std::string binDir = dirName(argv[0]);
    const std::string tmpDir = binDir + "/bench_json";
    std::system(("mkdir -p '" + tmpDir + "'").c_str());

    suiteState().outPath = outPath;
    suiteState().threads = threads;
    installSuiteSignalFlush();

    std::vector<FigureResult> results;
    double totalWall = 0.0, totalSerial = 0.0;
    int failures = 0;

    for (const std::string& fig : figures) {
        const std::string binary = binDir + "/" + fig;
        const std::string jsonPath = tmpDir + "/" + fig + ".json";

        FigureResult r;
        r.figure = fig;
        // Drop any stale record so a child that writes no telemetry
        // (or dies before writing) can't inherit a previous run's.
        std::remove(jsonPath.c_str());
        std::cerr << "[bench_all] " << fig << " (threads=" << threads
                  << ") ... " << std::flush;
        // The campaign drivers write a durable work directory; keep it
        // inside the suite scratch area and start it clean, in the
        // serial pass too (resume semantics are the kill-resume
        // oracle's job, not the suite's).
        std::string extraArgs;
        // The quick pass doubles as a freshness check on the example
        // scenario spec: the fault campaign is driven from the file the
        // docs point at, so a stale spec fails the suite, not a user.
        if (fig == "fault_campaign" && quick)
            extraArgs =
                " --spec='" GECKO_EXAMPLES_DIR "/emi_grid_spec.json'";
        if (fig == "campaign_runner") {
            extraArgs = " --fresh --dir='" + tmpDir + "/campaign_out'";
            if (quick)
                extraArgs += " --quick";
        }
        if (fig == "fig_adversarial") {
            extraArgs =
                " --fresh --dir='" + tmpDir + "/adversarial_out'";
            if (quick)
                extraArgs += " --quick";
        }
        double wall = runFigure(binary, jsonPath, threads, extraArgs);
        r.ok = wall >= 0;
        r.wallS = std::abs(wall);
        std::cerr << gecko::metrics::fmt(r.wallS, 2) << "s"
                  << (r.ok ? "" : " FAILED") << "\n";

        // Only the known keys are looked up, so newer child records
        // still aggregate here; a missing or unparseable record reads
        // as an empty one, leaving every default below.
        gecko::metrics::JsonValue child;
        gecko::metrics::parseJson(readFile(jsonPath), &child);
        r.schemaVersion = static_cast<int>(
            child.getU64("schema_version").value_or(1));
        for (int c = 0; c < kCounterKeys; ++c)
            r.counters[c] = child.getU64(kCounterKey[c]).value_or(0);
        r.status = child.getString("status").value_or(r.ok ? "pass" : "fail");
        r.execBackend = child.getString("exec_backend").value_or("unknown");
        if (!r.ok)
            r.status = "fail";

        if (baseline && r.ok) {
            std::cerr << "[bench_all] " << fig << " (serial) ... "
                      << std::flush;
            double serial = runFigure(binary, jsonPath, 1, extraArgs);
            r.serialWallS = std::abs(serial);
            std::cerr << gecko::metrics::fmt(r.serialWallS, 2) << "s\n";
        }

        if (r.status != "pass")
            ++failures;
        totalWall += r.wallS;
        totalSerial += r.serialWallS;
        results.push_back(r);
        {
            // Mirror progress into the watcher-visible state so an
            // interrupt flushes every completed figure.
            std::lock_guard<std::mutex> lock(suiteState().mutex);
            suiteState().results = results;
        }
    }

    std::string suiteJson;
    {
        std::lock_guard<std::mutex> lock(suiteState().mutex);
        suiteJson = renderSuiteJson(results, threads, "");
    }
    std::ofstream out(outPath);
    if (!out) {
        std::cerr << "[bench_all] cannot write " << outPath << "\n";
        return 1;
    }
    out << suiteJson << "\n";

    std::cerr << "[bench_all] " << results.size() << " figures, "
              << gecko::metrics::fmt(totalWall, 1) << "s wall";
    if (totalSerial > 0)
        std::cerr << ", " << gecko::metrics::fmt(totalSerial, 1)
                  << "s serial -> "
                  << gecko::metrics::fmt(totalSerial / totalWall, 2)
                  << "x speedup";
    std::cerr << " -> " << outPath << "\n";
    if (quick && totalWall > 30.0)
        std::cerr << "[bench_all] WARNING: --quick pass took "
                  << gecko::metrics::fmt(totalWall, 1)
                  << "s (budget 30s)\n";
    return failures == 0 ? 0 : 1;
}
