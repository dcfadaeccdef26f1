/**
 * @file
 * Benchmark driver for the GECKO simulator (see ../README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --reference FILE [--work-dir DIR] [--spans FILE]
 *   perfbench --workload NAME --record-reference
 *
 * One process runs one workload on one thread.  After an untimed
 * warm-up round it alternates a cold set-up and a round until S
 * seconds have passed, then (with --trace 1) runs one traced set-up,
 * round and probe pass for the per-layer numbers.  Every round's
 * digest is checked against the reference file.  The last line of
 * stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exp/thread_pool.hpp"
#include "sim/machine.hpp"
#include "trace/trace.hpp"

namespace perfbench {

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t variant,
             const std::string& workDir)
{
    if (name == "attack_sweep")
        return makeAttackSweep(variant);
    if (name == "harvest_compute")
        return makeHarvestCompute(variant);
    if (name == "campaign_faults")
        return makeCampaignFaults(variant, workDir);
    return nullptr;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Seeds map onto this many input variants, each with a reference
/// digest in the reference file.
constexpr std::uint64_t kVariants = 64;
/// Each unit's host time is estimated as this quantile over the
/// rounds: a low quantile keeps the fast regime of a host whose
/// floating-point throughput flips between regimes.
constexpr double kQuantile = 0.10;
/// p10 of the libm reference slice on the quiet 4-core host the rounds
/// were sized on.  Host times are reported scaled to this speed.
constexpr double kNominalFpRefS = 0.45e-3;
constexpr std::size_t kMinRounds = 5;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string reference;
    std::string workDir = "perfbench-work";
    std::string spans = "perfbench-spans.jsonl";
};

bool
parseArgs(int argc, char** argv, Options* o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](std::string* out) {
            if (i + 1 >= argc)
                return false;
            *out = argv[++i];
            return true;
        };
        std::string v;
        if (arg == "--record-reference") {
            o->record = true;
        } else if (!value(&v)) {
            return false;
        } else if (arg == "--workload") {
            o->workload = v;
        } else if (arg == "--seed") {
            o->seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o->seconds = std::atof(v.c_str());
        } else if (arg == "--trace") {
            o->trace = v == "1";
        } else if (arg == "--reference") {
            o->reference = v;
        } else if (arg == "--work-dir") {
            o->workDir = v;
        } else if (arg == "--spans") {
            o->spans = v;
        } else {
            return false;
        }
    }
    return !o->workload.empty() && o->seconds > 0 &&
           (o->record || !o->reference.empty());
}

/**
 * The measured program is pinned: any knob that changes what the
 * simulator executes, or how many threads run it, refuses the run.
 * @return the offending variable, or nullptr.
 */
const char*
pinViolation()
{
    for (const char* name :
         {"GECKO_EXEC", "GECKO_COALESCE", "GECKO_TRACE_OUT",
          "GECKO_TRACE_BLOCKS", "GECKO_WATCHDOG", "GECKO_SEED"})
        if (std::getenv(name) != nullptr)
            return name;
    if (const char* threads = std::getenv("GECKO_THREADS");
        threads != nullptr && std::string(threads) != "1")
        return "GECKO_THREADS";
    return nullptr;
}

/** Reference digest of (workload, variant), or "" when absent. */
std::string
referenceDigest(const std::string& path, const std::string& workload,
                std::uint64_t variant)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, digest;
        std::uint64_t v = 0;
        if (fields >> name >> v >> digest && name == workload && v == variant)
            return digest;
    }
    return "";
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/**
 * Fixed libm reference slice timed between rounds: sin() on arguments
 * both below and above glibc's slow-path threshold (~1.05e8 rad).  It
 * does no simulator work, so a change in its time is the host's.
 */
double
fpReferenceSlice()
{
    double acc = 0.0;
    for (int i = 0; i < 8000; ++i) {
        const double x = 0.37 * i;
        acc += std::sin(x) + std::sin(2.0e8 + x);
    }
    return acc;
}

/**
 * Peak resident set of this process image.  VmHWM rather than
 * getrusage's ru_maxrss, which keeps the high-water mark of the
 * process that forked us (here, the Python wrapper) across execve.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Durations of campaign jobs from their start ticks: each job runs
 * until the next job starts or its runCampaign span ends.
 */
std::vector<double>
jobDurations(const Tracer& t)
{
    std::vector<double> ticks = t.starts("campaign.job");
    std::vector<double> runStarts = t.starts("campaign.run");
    std::vector<double> runLengths = t.durations("campaign.run");
    std::sort(ticks.begin(), ticks.end());
    std::vector<double> out;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        double end = ticks[i];
        for (std::size_t r = 0; r < runStarts.size(); ++r)
            if (runStarts[r] <= ticks[i] &&
                ticks[i] <= runStarts[r] + runLengths[r])
                end = runStarts[r] + runLengths[r];
        if (i + 1 < ticks.size())
            end = std::min(end, ticks[i + 1]);
        out.push_back(end - ticks[i]);
    }
    return out;
}

/**
 * Per-layer metrics of the traced run, followed by the untraced run's
 * noise diagnostics and the tracing overhead.
 */
std::vector<Metric>
layerMetrics(const Tracer& t, const std::vector<Metric>& diagnostics,
             double overheadPct)
{
    const double ms = 1e3;
    const double replayS = t.total("machine.replay");
    const double runS = t.total("sim.run");
    const double quanta = t.counter("sim.quanta");
    const double attempts = t.counter("jit.attempts");
    const double jobs = t.counter("campaign.jobs");
    const double campaignS = t.total("campaign.run");
    const double cases = t.counter("fault.cases");
    const double faultS = t.total("fault.campaign");
    const std::vector<double> victims = t.durations("sim.victim");
    const std::vector<double> caseTimes = t.durations("fault.case");
    const std::vector<double> jobTimes = jobDurations(t);
    auto count = [&t](const char* name) { return t.counter(name); };
    std::vector<Metric> out = {
        {"compiler.compiles", "count",
         static_cast<double>(t.durations("compiler.compile").size())},
        {"compiler.compile_s", "s", t.total("compiler.compile")},
        {"machine.instrs", "count", count("machine.instrs")},
        {"machine.cycles", "count", count("machine.cycles")},
        {"machine.replay_s", "s", replayS},
        {"machine.minstr_per_s", "Minstr/s",
         ratio(count("machine.replay_instrs"), replayS) / 1e6},
        {"sim.victims", "count", count("sim.victims")},
        {"sim.run_s", "s", runS},
        {"sim.victim_p50_ms", "ms", quantile(victims, 0.5) * ms},
        {"sim.victim_p90_ms", "ms", quantile(victims, 0.9) * ms},
        {"sim.quanta", "count", quanta},
        {"sim.coalesced_quanta", "count", count("sim.coalesced_quanta")},
        {"sim.coalesce_ratio", "ratio",
         ratio(count("sim.coalesced_quanta"), quanta)},
        {"sim.quanta_per_s", "1/s", ratio(quanta, runS)},
        {"sim.loop_self_s", "s", runS - replayS},
        {"energy.harvester_calls", "count", count("energy.harvester_calls")},
        {"energy.harvester_s", "s", count("energy.harvester_s")},
        {"jit.attempts", "count", attempts},
        {"jit.complete", "count", count("jit.complete")},
        {"jit.torn", "count", count("jit.torn")},
        {"jit.aborted", "count", count("jit.aborted")},
        {"jit.missed", "count", count("jit.missed")},
        {"jit.complete_ratio", "ratio",
         ratio(count("jit.complete"), attempts + count("jit.missed"))},
        {"runtime.reboots", "count", count("runtime.reboots")},
        {"runtime.hard_deaths", "count", count("runtime.hard_deaths")},
        {"runtime.rollbacks", "count", count("runtime.rollbacks")},
        {"runtime.corrupted_restores", "count",
         count("runtime.corrupted_restores")},
        {"monitor.backup_signals", "count", count("monitor.backup_signals")},
        {"monitor.wake_signals", "count", count("monitor.wake_signals")},
        {"defense.samples", "count", count("defense.samples")},
        {"defense.escalations", "count", count("defense.escalations")},
        {"defense.wakes_deferred", "count", count("defense.wakes_deferred")},
        {"campaign.jobs", "count", jobs},
        {"campaign.run_s", "s", campaignS},
        {"campaign.jobs_per_s", "1/s", ratio(jobs, campaignS)},
        {"campaign.job_p50_ms", "ms", quantile(jobTimes, 0.5) * ms},
        {"campaign.job_p90_ms", "ms", quantile(jobTimes, 0.9) * ms},
        {"campaign.attempts_failed", "count",
         count("campaign.attempts_failed")},
        {"campaign.resumed_from_snapshot", "count",
         count("campaign.resumed_from_snapshot")},
        {"snapshot.save_ms", "ms", t.total("snapshot.save") * ms},
        {"snapshot.restore_ms", "ms", t.total("snapshot.restore") * ms},
        {"snapshot.write_ms", "ms", t.total("snapshot.write") * ms},
        {"snapshot.bytes", "bytes", count("snapshot.bytes")},
        {"manifest.records", "count", count("manifest.records")},
        {"manifest.bytes", "bytes", count("manifest.bytes")},
        {"manifest.replay_ms", "ms", t.total("manifest.replay") * ms},
        {"fault.cases", "count", cases},
        {"fault.run_s", "s", faultS},
        {"fault.cases_per_s", "1/s", ratio(cases, faultS)},
        {"fault.case_p50_ms", "ms", quantile(caseTimes, 0.5) * ms},
        {"fault.case_p90_ms", "ms", quantile(caseTimes, 0.9) * ms},
        {"fault.golden_s", "s", t.total("fault.golden")},
        {"fault.corpus_kept", "count", count("fault.corpus_kept")},
        {"fault.gecko_corruptions", "count", count("fault.gecko_corruptions")},
    };
    out.insert(out.end(), diagnostics.begin(), diagnostics.end());
    out.push_back({"trace.overhead_pct", "%", overheadPct});
    return out;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << number(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    out << "}}";
    std::cout << out.str() << std::endl;
}

/** Tallies every round's operations and digest check. */
struct Checker {
    std::string expected;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void check(const RoundResult& r)
    {
        attempted += r.ops + 1;
        failed += r.failedOps;
        if (r.digest != expected) {
            ++failed;
            std::cerr << "perfbench: round digest " << r.digest
                      << " != reference " << expected << "\n";
        }
    }
};

int
recordReference(const Options& opt)
{
    for (std::uint64_t v = 0; v < kVariants; ++v) {
        auto wl = makeWorkload(opt.workload, v, opt.workDir);
        wl->setup(nullptr);
        UnitTimer timer;
        timer.start();
        const RoundResult r = wl->round(timer, nullptr);
        if (r.failedOps != 0) {
            std::cerr << "perfbench: variant " << v << " failed "
                      << r.failedOps << " operations\n";
            return 1;
        }
        std::cout << opt.workload << " " << v << " " << r.digest
                  << std::endl;
    }
    return 0;
}

int
run(const Options& opt)
{
    const std::uint64_t variant = opt.seed % kVariants;
    Checker checker;
    checker.expected = referenceDigest(opt.reference, opt.workload, variant);
    if (checker.expected.empty()) {
        std::cerr << "perfbench: no reference digest for " << opt.workload
                  << " variant " << variant << " in " << opt.reference
                  << "\n";
        return 2;
    }
    auto wl = makeWorkload(opt.workload, variant, opt.workDir);
    const auto begin = Clock::now();

    // Warm-up: fills the process-lifetime caches (golden oracles,
    // static tables) and faults in the heap.
    UnitTimer timer;
    wl->setup(nullptr);
    timer.start();
    checker.check(wl->round(timer, nullptr));
    const std::size_t units = timer.laps().size();

    std::vector<std::vector<double>> unitTimes(units);
    std::vector<double> roundTotals, setupTimes, fpTimes;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    volatile double sink = 0.0;
    while (Clock::now() < deadline || roundTotals.size() < kMinRounds) {
        const auto t0 = Clock::now();
        wl->setup(nullptr);
        setupTimes.push_back(secondsSince(t0));

        timer.start();
        checker.check(wl->round(timer, nullptr));
        if (timer.laps().size() != units) {
            std::cerr << "perfbench: round produced " << timer.laps().size()
                      << " units, expected " << units << "\n";
            return 1;
        }
        for (std::size_t u = 0; u < units; ++u)
            unitTimes[u].push_back(timer.laps()[u]);
        roundTotals.push_back(std::accumulate(timer.laps().begin(),
                                              timer.laps().end(), 0.0));

        const auto t1 = Clock::now();
        sink = sink + fpReferenceSlice();
        fpTimes.push_back(secondsSince(t1));
    }
    const double measuredS = secondsSince(begin);

    double wallS = 0.0;
    for (const auto& times : unitTimes)
        wallS += quantile(times, kQuantile);
    // Per-unit spread, for telling a noisy unit from a noisy host.
    for (std::size_t u = 0; u < units; ++u)
        std::cerr << "unit " << u << " p10/p50/p90 ms "
                  << quantile(unitTimes[u], 0.1) * 1e3 << " "
                  << quantile(unitTimes[u], 0.5) * 1e3 << " "
                  << quantile(unitTimes[u], 0.9) * 1e3 << "\n";
    const double roundMedian = quantile(roundTotals, 0.5);
    const double iqrPct =
        ratio(quantile(roundTotals, 0.75) - quantile(roundTotals, 0.25),
              roundMedian) *
        100.0;
    const double fpRefS = quantile(fpTimes, kQuantile);
    const double setupS = quantile(setupTimes, kQuantile);
    const std::vector<Metric> diagnostics = {
        {"rounds.n", "count", static_cast<double>(roundTotals.size())},
        {"rounds.iqr_pct", "%", iqrPct},
        {"host.fp_ref_ms", "ms", fpRefS * 1e3},
        {"host.wall_raw_s", "s", wallS},
        {"host.setup_raw_s", "s", setupS},
    };
    // The host's speed drifts by 10 to 40 % over minutes, and the
    // reference slice, timed in this process, drifts with it; scaling
    // to its nominal time cancels most of that drift.
    const double hostScale = ratio(kNominalFpRefS, fpRefS);
    const std::vector<Metric> endToEnd = {
        {"wall_s", "s", wallS * hostScale},
        {"setup_s", "s", setupS * hostScale},
        {"peak_rss_mb", "MB", peakRssMb()},
    };

    unsigned cores = std::thread::hardware_concurrency();
    std::cout << "# perfbench workload=" << opt.workload
              << " seed=" << opt.seed << " variant=" << variant
              << " rounds=" << roundTotals.size() << " units=" << units
              << " measured_s=" << number(measuredS) << "\n";
    std::cout << "# host cores=" << cores << " build=" << PERFBENCH_BUILD_TYPE
              << " compiler=\"" << PERFBENCH_COMPILER << "\" exec="
              << gecko::sim::execBackendName(
                     gecko::sim::defaultExecBackend())
              << " trace_compiled_in=" << (gecko::trace::compiledIn() ? 1 : 0)
              << " threads=1\n";
    std::cout << "# round p10/p50/p90 s: " << number(quantile(roundTotals, 0.1))
              << " " << number(roundMedian) << " "
              << number(quantile(roundTotals, 0.9)) << "\n";

    std::vector<Metric> layers;
    if (opt.trace) {
        Tracer tracer;
        {
            Scope span(&tracer, "setup");
            wl->setup(&tracer);
        }
        timer.start();
        {
            Scope span(&tracer, "round");
            checker.check(wl->round(timer, &tracer));
        }
        const double tracedS = std::accumulate(timer.laps().begin(),
                                               timer.laps().end(), 0.0);
        {
            Scope span(&tracer, "probes");
            const std::uint64_t probeFailures = wl->probes(tracer);
            checker.attempted += 1;
            checker.failed += probeFailures;
        }
        if (!tracer.write(opt.spans)) {
            std::cerr << "perfbench: cannot write spans to " << opt.spans
                      << "\n";
            return 1;
        }
        layers = layerMetrics(tracer, diagnostics,
                              (ratio(tracedS, roundMedian) - 1.0) * 100.0);
    } else {
        layers = diagnostics;
    }

    const double failRatio = ratio(static_cast<double>(checker.failed),
                                   static_cast<double>(checker.attempted));
    for (const Metric& m : endToEnd)
        std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
    std::cout << "fail_ratio " << number(failRatio) << " ratio\n";
    for (const Metric& m : layers)
        std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
    printResult(checker.failed == 0, checker.attempted, checker.failed,
                opt.trace ? layers : endToEnd);
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 --reference FILE [--work-dir DIR] "
                     "[--spans FILE]\n"
                     "       perfbench --workload NAME --record-reference\n";
        return 2;
    }
    if (const char* name = pinViolation()) {
        std::cerr << "perfbench: refusing to run with " << name
                  << " set; the benchmark measures the default program\n";
        return 2;
    }
    if (!makeWorkload(opt.workload, 0, opt.workDir)) {
        std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
        return 2;
    }
    // Single-threaded by design: GECKO_THREADS=1 semantics, every
    // parallelMap inline on this thread.
    gecko::exp::ThreadPool::setGlobalThreads(1);
    std::filesystem::create_directories(opt.workDir);
    int rc = 0;
    try {
        rc = opt.record ? recordReference(opt) : run(opt);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        rc = 1;
    }
    std::filesystem::remove_all(opt.workDir);
    return rc;
}
