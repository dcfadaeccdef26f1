#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "campaign/engine.hpp"
#include "campaign/manifest.hpp"
#include "device/device_db.hpp"
#include "fault/spec.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Crash-tolerant campaign driver (DESIGN.md §13).
 *
 * Runs (or resumes) a campaign over workload × scheme × scenario ×
 * seed in a durable directory.  Kill it — SIGINT, SIGTERM, even
 * `kill -9` — and rerunning the same command continues exactly where
 * it stopped; the final `aggregate.json` and the stdout aggregate line
 * are byte-identical to an uninterrupted run (the kill-and-resume
 * oracle in tests/campaign_kill_resume.sh enforces this).
 *
 * Usage: campaign_runner [--dir=PATH] [--fresh] [--quick] [--status]
 *                        [--workloads=a,b] [--schemes=a,b]
 *                        [--devices=a,b] [--defenses=a,b] [--seeds=N]
 *                        [--sim=S] [--slice=S] [--max-jobs=N]
 *                        [--threads=N] [--seed=N] [--spec=FILE]
 *
 * The default job space is the full workload × device matrix: every
 * workloads::build() benchmark on every Table-I board.  --quick (and
 * the spec engine section) narrows it.  Changing the space changes its
 * configHash, so a directory journaled under the old single-board
 * default refuses to resume under the new one — that refusal is the
 * identity guard working, not a bug; finish old dirs with the explicit
 * flags that describe their space.
 *
 * --spec=FILE loads a declarative scenario spec (src/fault/spec.hpp)
 * and applies it with fault::applyToEngine: its `engine` section sets
 * devices/seeds/sim/slice, its `scenario` section replaces the default
 * scenario list (clean is always kept as the baseline), and a spec
 * `seed` overrides GECKO_SEED / --seed.  Explicit flags after --spec
 * and --quick (wherever it stands) still win over the spec's values.
 *
 * Exit status: 0 only when the campaign is complete (every job done or
 * quarantined), so `until campaign_runner ...; do :; done` is a valid
 * resume loop; 2 for a bad flag value; 1 when the directory's journals
 * belong to another campaign or another runner holds them, or when a
 * journal, snapshot or aggregate write fails (the file is named).
 */

namespace {

using namespace gecko;
using bench::flagValue;
using bench::splitList;

/** Job counts by journal state and the damaged records of both
 *  journals, each named "<path>:<line>". */
void
printStatus(const std::string& dir)
{
    campaign::ManifestRecovery rec =
        campaign::readManifest(dir + "/manifest.jsonl");
    if (!rec.hasHeader) {
        std::cout << "no campaign in " << dir << "\n";
        return;
    }
    std::uint64_t done = 0, failed = 0, running = 0, quarantined = 0;
    for (const auto& [job, r] : rec.latest) {
        switch (r.state) {
            case campaign::JobState::kDone: ++done; break;
            case campaign::JobState::kFailed: ++failed; break;
            case campaign::JobState::kRunning: ++running; break;
            case campaign::JobState::kQuarantined: ++quarantined; break;
            case campaign::JobState::kPending: break;
        }
    }
    const std::uint64_t tornResults = campaign::readResults(
        dir + "/results.jsonl", rec.totalJobs,
        [](const campaign::JobResult&) {}, &rec.damagedRecords);
    std::cout << "campaign " << dir << ": jobs=" << rec.totalJobs
              << " done=" << done << " running=" << running
              << " failed=" << failed << " quarantined=" << quarantined
              << " torn_lines=" << rec.tornLines + tornResults << "\n";
    for (const std::string& name : rec.damagedRecords)
        std::cout << "damaged " << name << "\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    // First ^C/SIGTERM latches the cooperative stop flag: workers
    // snapshot their in-flight jobs and the journal is flushed before
    // exit.  A second one force-quits.
    bench::installSignalStop();

    std::string dir = "campaign_out";
    bool fresh = false;
    bool quick = false;
    bool statusOnly = false;

    campaign::EngineConfig config;
    campaign::CampaignSpace& space = config.space;
    // Full workload × device matrix by default (ROADMAP item 2): every
    // buildable benchmark plus the app workloads, on every Table-I
    // board.  Each job is cheap (tens of simulated milliseconds), so
    // the full matrix stays interactive; --quick narrows it.
    space.workloads = workloads::benchmarkNames();
    space.workloads.push_back("sensor_loop");
    space.workloads.push_back("sensor_app");
    space.workloads.push_back("xtea");
    space.devices.clear();
    for (const device::DeviceProfile& d : device::DeviceDb::all())
        space.devices.push_back(d.name);
    space.schemes = {compiler::Scheme::kNvp, compiler::Scheme::kGecko};
    space.scenarios.resize(3);  // clean baseline, tone, burst
    space.scenarios[0] = campaign::cleanBaseline();
    space.scenarios[1].kind = campaign::ScenarioKind::kTone;
    space.scenarios[2].kind = campaign::ScenarioKind::kBurst;
    space.seeds = campaign::seedRange(4);
    space.simSeconds = 0.02;
    space.sliceSimSeconds = 0.005;
    // Spec seed > GECKO_SEED / --seed > 1 (fault::resolveSeed).
    config.seed = exp::globalSeed() != 0 ? exp::globalSeed() : 1;
    std::string specPath;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--dir=", 0) == 0) {
            dir = arg.substr(6);
        } else if (arg == "--fresh") {
            fresh = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--status") {
            statusOnly = true;
        } else if (arg.rfind("--workloads=", 0) == 0) {
            space.workloads = splitList(arg.substr(12));
        } else if (arg.rfind("--schemes=", 0) == 0) {
            space.schemes.clear();
            for (const std::string& name : splitList(arg.substr(10))) {
                compiler::Scheme scheme;
                if (!compiler::schemeFromName(name, &scheme)) {
                    std::cerr << "unknown scheme: " << name << "\n";
                    return 2;
                }
                space.schemes.push_back(scheme);
            }
        } else if (arg.rfind("--devices=", 0) == 0) {
            space.devices = splitList(arg.substr(10));
        } else if (arg.rfind("--defenses=", 0) == 0) {
            space.defenses = splitList(arg.substr(11));
        } else if (arg.rfind("--seeds=", 0) == 0) {
            space.seeds = campaign::seedRange(flagValue(arg, 1, 100000));
        } else if (arg.rfind("--sim=", 0) == 0) {
            space.simSeconds = flagValue(arg, 1e-6, 1e6);
        } else if (arg.rfind("--slice=", 0) == 0) {
            space.sliceSimSeconds = flagValue(arg, 0.0, 1e6);
        } else if (arg.rfind("--max-jobs=", 0) == 0) {
            config.maxJobsThisRun = flagValue<std::uint64_t>(arg, 0);
        } else if (arg.rfind("--spec=", 0) == 0) {
            specPath = arg.substr(7);
            fault::FaultSpec spec;
            std::string error;
            if (!fault::loadSpecFile(specPath, &spec, &error)) {
                std::cerr << error << "\n";
                return 2;
            }
            // Later flags still win over the spec's values.
            fault::applyToEngine(spec, &config);
        } else if (arg.rfind("--threads=", 0) == 0 ||
                   arg.rfind("--seed=", 0) == 0 ||
                   arg.rfind("--trace=", 0) == 0) {
            // handled by bench::init
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            return 2;
        }
    }
    if (quick) {
        space.workloads = {"sensor_loop"};
        space.devices = {"MSP430FR5994"};
        space.scenarios.resize(2);  // clean + tone
        space.seeds = campaign::seedRange(2);
        space.simSeconds = 0.01;
        space.sliceSimSeconds = 0.0025;
    }

    if (statusOnly) {
        printStatus(dir);
        return 0;
    }

    std::error_code ec;
    if (fresh)
        std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);

    config.dir = dir;
    config.specPath = specPath;
    config.stopRequested = [] { return bench::stopSignal().load() != 0; };

    campaign::EngineReport report;
    try {
        report = campaign::runCampaign(config, exp::ThreadPool::global());
    } catch (const std::exception& e) {
        std::cerr << "campaign_runner: " << e.what() << "\n";
        return 1;
    }

    // Run-dependent telemetry (varies across kill/resume) goes to
    // stderr; stdout carries only the deterministic aggregate.
    std::cerr << "[campaign] jobs=" << report.jobsTotal << " done="
              << report.jobsDone << " quarantined="
              << report.jobsQuarantined << " requeued="
              << report.jobsRequeued << " resumed_snapshots="
              << report.resumedFromSnapshot << " failed_attempts="
              << report.attemptsFailed << " torn_lines="
              << report.tornManifestLines + report.tornResultLines
              << (report.complete ? " COMPLETE" : " INCOMPLETE") << "\n";
    for (const std::string& name : report.damagedRecords)
        std::cerr << "[campaign] damaged " << name << "\n";
    if (report.complete)
        std::cout << report.aggregateJson << "\n";

    bench::noteCounters(report.totals);
    const std::string status = report.complete
                                   ? (report.jobsQuarantined == 0
                                          ? "pass"
                                          : "fail")
                                   : "interrupted";
    int jsonRc = bench::writeBenchReport("campaign_runner", status);
    if (!report.complete)
        return bench::stopSignal().load() != 0 ? 3 : 4;
    return report.jobsQuarantined == 0 ? jsonRc : 1;
}
