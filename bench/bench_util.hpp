#ifndef GECKO_BENCH_BENCH_UTIL_HPP_
#define GECKO_BENCH_BENCH_UTIL_HPP_

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "compiler/compile_cache.hpp"
#include "compiler/pipeline.hpp"
#include "device/device_db.hpp"
#include "exp/parallel.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "sim/intermittent_sim.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Shared helpers for the per-figure/per-table benchmark binaries.
 *
 * Sweeps run through exp::parallelMap at the global pool's width via
 * runSweep(): every sweep point is an independent task owning its own
 * simulator, and results come back in input order, so stdout is
 * byte-identical no matter how many threads run (`GECKO_THREADS=1` vs
 * `=8`).  Telemetry (wall time per sweep, simulated cycles, thread
 * count) accumulates process-wide and is written as JSON by
 * writeBenchReport() when `GECKO_BENCH_JSON` names an output file —
 * see bench_all and BENCH_sweeps.json.
 */

namespace gecko::bench {

/** Frequency grid: dense near the sub-50 MHz band, coarse above. */
inline std::vector<double>
attackFrequencyGrid(double lowHz, double highHz)
{
    std::vector<double> freqs;
    for (double f = lowHz; f <= highHz;) {
        freqs.push_back(f);
        if (f < 60e6)
            f += 1e6;
        else if (f < 200e6)
            f += 10e6;
        else
            f += 50e6;
    }
    return freqs;
}

/** One attacked simulation run's outcome. */
struct AttackOutcome {
    /// `exec.cycles` is the forward-progress proxy for NVP.
    sim::Counters counters;
    double checkpointFailureRate = 0.0;
};

/** Common victim-under-attack configuration. */
struct VictimConfig {
    const device::DeviceProfile* device = nullptr;
    analog::MonitorKind monitor = analog::MonitorKind::kAdc;
    compiler::Scheme scheme = compiler::Scheme::kNvp;
    std::string workload = "sensor_loop";
    double simSeconds = 0.05;
    /// DC bench supply by default (DPI experimental setting, Fig. 3).
    bool squareWaveSupply = false;
};

/** Process-wide telemetry shared by runVictim/runSweep. */
struct Telemetry {
    std::mutex mutex;
    std::vector<metrics::SweepRecord> sweeps;
    /// Counter totals of every simulation run (guarded by `mutex`).
    sim::Counters counters;
    /// Event-trace sink, non-null when `--trace=PATH` or
    /// `GECKO_TRACE_OUT` requested one; every runSweep point records
    /// into its own per-point buffer.
    std::unique_ptr<trace::Collector> collector;
    /// Destination of the merged trace ("" = tracing off).
    std::string traceOut;
    /// Defense configuration of the bench's victims, recorded into the
    /// JSON report: "static" (paper default) or "adaptive" (a bench
    /// that arms the online controller sets this).
    std::string defenseMode = "static";
    /// Raw per-figure JSON payload, copied verbatim into the report's
    /// `figure_data` key (schema v6); "" = none.
    std::string figureData;
    std::chrono::steady_clock::time_point processStart =
        std::chrono::steady_clock::now();
};

inline Telemetry&
telemetry()
{
    static Telemetry t;
    return t;
}

/**
 * The value of a numeric flag `--name=VALUE`: all of VALUE must read as
 * a T in [lo, hi].  Anything else names the flag on stderr and exits 2,
 * the drivers' bad-input status.
 */
template <class T>
T
flagValue(const std::string& arg, T lo, T hi = std::numeric_limits<T>::max())
{
    const std::size_t eq = arg.find('=');
    const std::string text = arg.substr(eq + 1);
    const char* end = text.data() + text.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc() && ptr == end && value >= lo && value <= hi)
        return value;
    std::cerr << arg.substr(0, eq) << ": expected a number in [" << lo
              << ", " << hi << "], got \"" << text << "\"\n";
    std::exit(2);
}

/** Comma-separated list flag value; empty items are dropped. */
inline std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * Bench entry hook: parse the shared CLI flags before the global pool
 * exists.  Supported: `--threads=N` (1..1024; overrides
 * `GECKO_THREADS`), `--seed=N` (overrides `GECKO_SEED`; see
 * exp/rng.hpp), and
 * `--trace=PATH` (overrides `GECKO_TRACE_OUT`) to write a merged event
 * trace of every sweep point — `.json` gets Chrome-trace/Perfetto
 * format, anything else JSONL (see trace/export.hpp).
 */
inline void
init(int argc, char** argv)
{
    std::string traceOut;
    if (const char* env = std::getenv("GECKO_TRACE_OUT"); env && *env)
        traceOut = env;
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--threads=", 0) == 0) {
            threads = flagValue(arg, 1, exp::ThreadPool::kMaxThreads);
        } else if (arg.rfind("--seed=", 0) == 0) {
            exp::setGlobalSeed(flagValue<std::uint64_t>(arg, 0));
        } else if (arg.rfind("--trace=", 0) == 0) {
            traceOut = arg.substr(8);
        }
    }
    // GECKO_THREADS and GECKO_SEED are resolved here, so a malformed
    // one throws before any work, whether or not the run fans out.
    exp::ThreadPool::setGlobalThreads(
        threads > 0 ? threads : exp::ThreadPool::defaultThreads());
    exp::globalSeed();
    if (!traceOut.empty()) {
        if (trace::compiledIn()) {
            telemetry().traceOut = traceOut;
            telemetry().collector = std::make_unique<trace::Collector>();
        } else {
            std::cerr << "[bench] --trace requested but tracing is "
                         "compiled out (GECKO_TRACE=0); ignoring\n";
        }
    }
    telemetry();  // pin the process start time
}

/**
 * Execute `fn` over `points` on the global pool, results in input
 * order, recording sweep telemetry under `label`.
 */
template <class Point, class Fn>
auto
runSweep(const std::string& label, const std::vector<Point>& points, Fn fn)
{
    auto& pool = exp::ThreadPool::global();
    std::vector<double> taskSeconds;
    auto t0 = std::chrono::steady_clock::now();
    // Each point records into its own trace buffer keyed by
    // (sweep label, point ordinal); parallelMap hands `fn` references
    // into `points`, so the ordinal is recoverable by address.
    auto traced = [&](const Point& p) {
        trace::CaseScope scope(
            telemetry().collector.get(), label,
            static_cast<std::uint64_t>(&p - points.data()));
        return fn(p);
    };
    auto results = exp::parallelMap(pool, points, traced, &taskSeconds);
    auto t1 = std::chrono::steady_clock::now();

    metrics::SweepRecord record;
    record.label = label;
    record.tasks = points.size();
    record.threads = pool.threadCount();
    record.wallS = std::chrono::duration<double>(t1 - t0).count();
    for (double s : taskSeconds)
        record.taskS += s;
    {
        std::lock_guard<std::mutex> lock(telemetry().mutex);
        telemetry().sweeps.push_back(std::move(record));
    }
    return results;
}

/** Add a run's (or a campaign's) counters to the process totals. */
inline void
noteCounters(const sim::Counters& counters)
{
    std::lock_guard<std::mutex> lock(telemetry().mutex);
    telemetry().counters += counters;
}

/**
 * Emit the figure's JSON telemetry when `GECKO_BENCH_JSON` names an
 * output path.  Call as the bench's exit value: `return
 * bench::writeBenchReport("fig04");` — stdout stays untouched so
 * series output remains byte-comparable across thread counts.
 * `status` ("pass"/"fail") is for benches with a verdict; empty means
 * "no pass/fail semantics".  Also flushes the event trace when
 * `--trace=`/`GECKO_TRACE_OUT` armed one — independent of
 * GECKO_BENCH_JSON.
 */
inline int
writeBenchReport(const std::string& figure, const std::string& status = "")
{
    int rc = 0;
    if (telemetry().collector) {
        if (!trace::writeTraceFile(*telemetry().collector,
                                   telemetry().traceOut)) {
            std::cerr << "[bench] cannot write trace "
                      << telemetry().traceOut << "\n";
            rc = 1;
        }
    }
    const char* path = std::getenv("GECKO_BENCH_JSON");
    if (!path || !*path)
        return rc;
    metrics::BenchReport report;
    report.figure = figure;
    report.status = status;
    report.traceOut = telemetry().traceOut;
    report.seed = exp::globalSeed();
    report.defenseMode = telemetry().defenseMode;
    report.execBackend =
        sim::execBackendName(sim::defaultExecBackend());
    report.threads = exp::ThreadPool::global().threadCount();
    unsigned hw = std::thread::hardware_concurrency();
    report.hostCores = hw >= 1 ? hw : 1;
    report.wallS = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() -
                       telemetry().processStart)
                       .count();
    report.figureData = telemetry().figureData;
    {
        std::lock_guard<std::mutex> lock(telemetry().mutex);
        report.counters = telemetry().counters;
        report.sweeps = telemetry().sweeps;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "[bench] cannot write " << path << "\n";
        return 1;
    }
    out << report.toJson() << "\n";
    return rc;
}

/**
 * Latched id of the first SIGINT/SIGTERM delivered after
 * installSignalStop() (0 = none).  Drivers poll this as their
 * cooperative stop flag.
 */
inline std::atomic<int>&
stopSignal()
{
    static std::atomic<int> sig{0};
    return sig;
}

namespace detail {

/**
 * Block SIGINT/SIGTERM in the calling thread and every thread it
 * spawns afterwards (a parallel loop's helpers start from their caller
 * and inherit the mask), then hand them to `onSignal` on a dedicated
 * sigwait watcher.  Only the watcher ever sees the signals, which
 * keeps the handler path free of async-signal-safety limits (it may
 * take locks and do file I/O, unlike a real signal handler).
 */
inline void
watchSignals(std::function<void(int)> onSignal)
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    std::thread([set, onSignal = std::move(onSignal)] {
        int sig = 0;
        if (sigwait(&set, &sig) == 0)
            onSignal(sig);
    }).detach();
}

}  // namespace detail

/**
 * Graceful-stop wiring for long drivers (campaign_runner): the first
 * SIGINT/SIGTERM latches stopSignal() so the driver drains and
 * journals its progress; a second one force-exits for impatient ^C^C.
 */
inline void
installSignalStop()
{
    detail::watchSignals([](int sig) {
        stopSignal().store(sig);
        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, SIGINT);
        sigaddset(&set, SIGTERM);
        int again = 0;
        if (sigwait(&set, &again) == 0)
            std::_Exit(128 + again);
    });
}

/**
 * Flush-and-exit wiring for the figure benches (fault_campaign):
 * SIGINT/SIGTERM writes the partial JSON telemetry (status
 * "interrupted") and the merged trace, then exits 128+sig.  Partial
 * telemetry beats none: an interrupted multi-hour campaign still
 * reports what it measured.
 */
inline void
installSignalFlush(const std::string& figure)
{
    detail::watchSignals([figure](int sig) {
        writeBenchReport(figure, "interrupted");
        std::_Exit(128 + sig);
    });
}

/**
 * Run the victim once with the given (possibly null) injection setup.
 * Thread-safe: every call owns its simulator, I/O hub, and source; the
 * compiled program is shared through the global CompileCache.
 */
inline AttackOutcome
runVictim(const VictimConfig& vc, const attack::InjectionRig* rig,
          double freqHz, double powerDbm)
{
    std::string key = compiler::CompileCache::makeKey(
        vc.workload, vc.scheme, vc.device ? vc.device->name : "");
    std::shared_ptr<const compiler::CompiledProgram> compiled =
        compiler::CompileCache::global().getOrCompile(key, [&] {
            return compiler::compile(workloads::build(vc.workload),
                                     vc.scheme);
        });

    sim::IoHub io;
    workloads::setupIo(vc.workload, io);
    sim::SimConfig config;
    config.cap.capacitanceF = 1e-3;
    config.cap.initialV = 3.3;
    config.monitorKind = vc.monitor;

    std::unique_ptr<energy::Harvester> harvester;
    if (vc.squareWaveSupply)
        harvester =
            std::make_unique<energy::SquareWaveHarvester>(3.3, 5.0, 0.5,
                                                          0.5);
    else
        harvester = std::make_unique<energy::ConstantHarvester>(3.3, 5.0);

    sim::IntermittentSim simulation(*compiled, *vc.device, config,
                                    *harvester, io);
    std::unique_ptr<attack::EmiSource> source;
    if (rig) {
        source = std::make_unique<attack::EmiSource>(*rig, freqHz,
                                                     powerDbm);
        simulation.setEmiSource(source.get());
    }
    simulation.run(vc.simSeconds);

    AttackOutcome out{simulation.counters(),
                      simulation.checkpointFailureRate()};
    noteCounters(out.counters);
    return out;
}

/** Record simulated cycles from benches that drive a bare machine. */
inline void
noteSimCycles(std::uint64_t cycles)
{
    sim::Counters counters;
    counters.exec.cycles = cycles;
    noteCounters(counters);
}

/**
 * Forward-progress rate R = T_forward / T_guarantee (§IV-A2): executed
 * cycles under attack over executed cycles of the unattacked run.
 */
inline double
progressRate(const AttackOutcome& attacked, const AttackOutcome& clean)
{
    const std::uint64_t base = clean.counters.exec.cycles;
    if (base == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(attacked.counters.exec.cycles) /
                             static_cast<double>(base));
}

/** Print a named series as "x y" rows. */
inline void
printSeries(const metrics::Series& series, const std::string& xlabel,
            const std::string& ylabel)
{
    std::cout << "# series: " << series.name << "  (" << xlabel << " vs "
              << ylabel << ")\n";
    for (std::size_t i = 0; i < series.x.size(); ++i)
        std::cout << "  " << series.x[i] << "\t" << series.y[i] << "\n";
}

}  // namespace gecko::bench

#endif  // GECKO_BENCH_BENCH_UTIL_HPP_
