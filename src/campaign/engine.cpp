#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "campaign/archive.hpp"
#include "campaign/manifest.hpp"
#include "campaign/snapshot.hpp"
#include "compiler/compile_cache.hpp"
#include "defense/defense.hpp"
#include "device/device_db.hpp"
#include "exp/parallel.hpp"
#include "exp/rng.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/io_devices.hpp"
#include "workloads/workloads.hpp"

namespace gecko::campaign {

std::uint64_t
CampaignSpace::jobCount() const
{
    std::uint64_t n = 1;
    n *= workloads.size();
    n *= schemes.size();
    n *= devices.size();
    n *= scenarios.size();
    n *= defenses.size();
    n *= seeds.size();
    return n;
}

namespace {

std::uint64_t
fnv1a(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Fixed 17-digit text of the configHash canonical form.  Not the
 *  shortest round-trip text (metrics::roundTripNumber): switching would
 *  re-fingerprint every journaled campaign and refuse its resume. */
std::string
hashNum(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

}  // namespace

std::uint64_t
CampaignSpace::configHash() const
{
    // Canonical textual description; any knob that changes job
    // semantics must appear here so a stale journal can't silently
    // resume a *different* campaign.
    std::uint64_t h = 14695981039346656037ull;
    for (const auto& w : workloads)
        h = fnv1a(h, "w:" + w + ";");
    for (auto s : schemes)
        h = fnv1a(h, std::string("s:") + compiler::schemeName(s) + ";");
    for (const auto& d : devices)
        h = fnv1a(h, "d:" + d + ";");
    for (const auto& sc : scenarios) {
        h = fnv1a(h, std::string("a:") + scenarioName(sc.kind) + "," +
                         hashNum(sc.freqHz) + "," + hashNum(sc.powerDbm) +
                         ";");
        // New axes hash only when engaged, so pre-spatial journals keep
        // their hashes and stay resumable.
        if (sc.gridRows > 0)
            h = fnv1a(h, "g:" + std::to_string(sc.gridRows) + "," +
                             std::to_string(sc.gridCols) + "," +
                             std::to_string(sc.gridRow) + "," +
                             std::to_string(sc.gridCol) + ";");
        if (sc.burstCount > 0)
            h = fnv1a(h, "b:" + std::to_string(sc.burstCount) + "," +
                             hashNum(sc.burstOnS) + "," +
                             hashNum(sc.burstGapS) + ";");
        if (!sc.name.empty())
            h = fnv1a(h, "n:" + sc.name + ";");
        if (sc.dutyPeriodS > 0)
            h = fnv1a(h, "y:" + hashNum(sc.dutyPeriodS) + "," +
                             hashNum(sc.dutyOnFrac) + ";");
        if (sc.phaseS > 0)
            h = fnv1a(h, "p:" + hashNum(sc.phaseS) + ";");
        if (!sc.envelopeDbm.empty()) {
            std::string env = "e:";
            for (double dbm : sc.envelopeDbm)
                env += hashNum(dbm) + ",";
            h = fnv1a(h, env + ";");
        }
        if (sc.outagePeriodS > 0)
            h = fnv1a(h, "o:" + hashNum(sc.outagePeriodS) + "," +
                             hashNum(sc.outageOnFrac) + ";");
    }
    // The defense axis hashes only when engaged (anything beyond the
    // single historical "static" arm), like the scenario axes above.
    if (defenses.size() != 1 || defenses[0] != "static")
        for (const auto& d : defenses)
            h = fnv1a(h, "f:" + d + ";");
    for (auto s : seeds)
        h = fnv1a(h, "r:" + std::to_string(s) + ";");
    h = fnv1a(h, "t:" + hashNum(simSeconds) + ";");
    h = fnv1a(h, "q:" + hashNum(sliceSimSeconds) + ";");
    return h;
}

std::string
JobSpec::groupKey() const
{
    // Seeds are the replication axis: they aggregate *into* a group,
    // never split one.
    std::string key = workload;
    key += '/';
    key += compiler::schemeName(scheme);
    key += '/';
    key += scenario.name.empty() ? scenarioName(scenario.kind)
                                 : scenario.name.c_str();
    // The historical single-arm "static" defense stays keyless so old
    // aggregates keep their group names byte-for-byte.
    if (defense != "static") {
        key += '/';
        key += defense;
    }
    return key;
}

std::vector<std::uint64_t>
seedRange(int count)
{
    std::vector<std::uint64_t> seeds;
    for (int s = 1; s <= count; ++s)
        seeds.push_back(static_cast<std::uint64_t>(s));
    return seeds;
}

JobSpec
jobAt(const CampaignSpace& space, std::uint64_t id)
{
    JobSpec spec;
    spec.job = id;
    std::uint64_t i = id;
    auto take = [&i](std::size_t radix) {
        std::size_t v = static_cast<std::size_t>(i % radix);
        i /= radix;
        return v;
    };
    spec.seed = space.seeds[take(space.seeds.size())];
    spec.defense = space.defenses[take(space.defenses.size())];
    spec.scenario = space.scenarios[take(space.scenarios.size())];
    spec.device = space.devices[take(space.devices.size())];
    spec.scheme = space.schemes[take(space.schemes.size())];
    spec.workload = space.workloads[take(space.workloads.size())];
    return spec;
}

namespace {

/// Journal fsync cadence (records) of the manifest and results.jsonl.
constexpr std::size_t kJournalSyncEvery = 8;
/// aggregate.json is rewritten every this many new results (and at the
/// end of the run).
constexpr std::uint64_t kCompactEvery = 64;
/// Consecutive queue positions a worker claims per cursor bump.
/// Neighbouring job ids share a program (jobAt varies the seed, defense
/// and scenario fastest), so workers that claimed one position at a
/// time would queue on the same CompileCache compile.
constexpr std::uint64_t kClaimJobs = 16;
/// Linear retry backoff unit: attempt n sleeps n times this.
constexpr int kRetryBackoffMs = 1;

/** Slice plan: count and per-slice duration (deterministic). */
struct SlicePlan {
    std::uint64_t count = 1;
    double sliceS = 0.0;  // all slices but the last
    double lastS = 0.0;
};

SlicePlan
planSlices(const CampaignSpace& space)
{
    SlicePlan plan;
    if (space.sliceSimSeconds <= 0.0 ||
        space.sliceSimSeconds >= space.simSeconds) {
        plan.count = 1;
        plan.sliceS = plan.lastS = space.simSeconds;
        return plan;
    }
    plan.sliceS = space.sliceSimSeconds;
    plan.count = static_cast<std::uint64_t>(
        std::ceil(space.simSeconds / space.sliceSimSeconds - 1e-9));
    if (plan.count < 1)
        plan.count = 1;
    plan.lastS = space.simSeconds -
                 static_cast<double>(plan.count - 1) * plan.sliceS;
    return plan;
}

/// Most attack windows one job's schedule may hold.  ScenarioEnv builds
/// them all before the job starts and keeps them (~44 bytes each) for
/// its lifetime, so a duty period far below the simulator's quantum
/// would stall a run rather than fail it.  The largest in-tree schedule
/// has 20 windows (a 1 ms duty period over 20 ms).
constexpr std::uint64_t kMaxScheduleWindows = 1u << 18;
/// Most slices one job may be cut into.  Each slice is a run() call
/// and a stop-flag poll, and the count is journaled as an integer, so
/// planSlices() must never see a larger one.  In-tree spaces plan 4.
constexpr std::uint64_t kMaxSlices = 1u << 20;

/** Refuse a space whose jobs would build unbounded state: duty windows
 *  and slices both multiply as their period shrinks. */
void
checkBounds(const CampaignSpace& space)
{
    using metrics::roundTripNumber;
    for (const Scenario& sc : space.scenarios) {
        if (sc.kind == ScenarioKind::kClean || sc.dutyPeriodS <= 0.0)
            continue;
        const double windows =
            (space.simSeconds - sc.phaseS) / sc.dutyPeriodS;
        if (windows > static_cast<double>(kMaxScheduleWindows))
            throw std::runtime_error(
                "campaign: duty.period_s " +
                roundTripNumber(sc.dutyPeriodS) + " over sim_s " +
                roundTripNumber(space.simSeconds) + " makes more than " +
                std::to_string(kMaxScheduleWindows) + " attack windows");
    }
    if (space.sliceSimSeconds <= 0.0)
        return;
    const double slices = space.simSeconds / space.sliceSimSeconds;
    if (slices > static_cast<double>(kMaxSlices))
        throw std::runtime_error(
            "campaign: slice_s " + roundTripNumber(space.sliceSimSeconds) +
            " over sim_s " + roundTripNumber(space.simSeconds) +
            " makes more than " + std::to_string(kMaxSlices) + " slices");
}

std::string
snapshotPath(const std::string& dir, std::uint64_t job)
{
    return dir + "/snap_" + std::to_string(job) + ".bin";
}

/** Outcome of one job attempt (exceptions signal failure). */
struct AttemptOutcome {
    bool interrupted = false;   ///< stop flag observed mid-job
    std::uint64_t slicesDone = 0;
    bool resumedFromSnapshot = false;
    JobResult result;           ///< valid when !interrupted
};

/**
 * Execute one job attempt, resuming from its snapshot if one exists.
 * Jobs always run slice-by-slice with the identical slice plan whether
 * or not anything interrupts them, so the quantum boundaries — and
 * therefore every counter — match an uninterrupted execution exactly.
 */
AttemptOutcome
runJobOnce(const EngineConfig& config, const JobSpec& spec,
           const SlicePlan& plan)
{
    AttemptOutcome out;

    auto compiled = compiler::CompileCache::global().getOrCompile(
        compiler::CompileCache::makeKey(spec.workload, spec.scheme,
                                        spec.device),
        [&] {
            return compiler::compile(workloads::build(spec.workload),
                                     spec.scheme);
        });
    const device::DeviceProfile& dev = device::DeviceDb::byName(spec.device);

    sim::SimConfig simCfg;
    simCfg.continuous = true;
    simCfg.memWords = 4096;
    simCfg.jitRamWords = 64;
    simCfg.bootOverheadCycles = 1000;
    simCfg.cap.capacitanceF = 20e-6;
    simCfg.cap.initialV = 3.3;
    simCfg.monitorSeed = exp::mixSeed(config.seed, spec.seed);
    if (!defense::presetByName(spec.defense, &simCfg.defense))
        throw std::runtime_error("campaign: unknown defense preset \"" +
                                 spec.defense + "\"");

    sim::IoHub io;
    workloads::setupIo(spec.workload, io);
    ScenarioEnv env(spec.scenario, dev, simCfg.monitorKind, spec.seed,
                    config.space.simSeconds);
    sim::IntermittentSim simulation(*compiled, dev, simCfg, env.supply(), io);
    env.attach(simulation);

    const std::string snapPath = snapshotPath(config.dir, spec.job);
    std::vector<std::uint8_t> blob = readSnapshotFile(snapPath);
    std::uint64_t firstSlice = 0;
    if (!blob.empty()) {
        try {
            Archive ar =
                Archive::loader(openContainer(blob, kSnapshotVersion));
            ar.check(spec.job, "snapshot job id");
            ar.u64(firstSlice);
            simulation.archiveState(ar);
            io.archiveState(ar);
            ar.finishLoad();
            if (firstSlice > plan.count)
                throw SnapshotError("snapshot slice count out of range");
            out.resumedFromSnapshot = true;
        } catch (const SnapshotError&) {
            // Damaged or foreign snapshot: drop it and run the job from
            // the start on fresh objects — the job is deterministic, so
            // the fresh run is exact.  A file that cannot be removed
            // fails the attempt instead, so this cannot loop.
            if (std::remove(snapPath.c_str()) != 0)
                throw;
            return runJobOnce(config, spec, plan);
        }
    }

    for (std::uint64_t k = firstSlice; k < plan.count; ++k) {
        if (config.stopRequested && config.stopRequested() &&
            plan.count > 1) {
            Archive ar = Archive::saver();
            ar.check(spec.job, "snapshot job id");
            ar.u64(k);
            simulation.archiveState(ar);
            io.archiveState(ar);
            mustWrite(writeSnapshotFile(snapPath,
                                        sealContainer(kSnapshotVersion,
                                                      ar.takePayload())),
                      snapPath);
            out.interrupted = true;
            out.slicesDone = k;
            return out;
        }
        simulation.run(k + 1 == plan.count ? plan.lastS : plan.sliceS);
    }

    JobResult& r = out.result;
    r.job = spec.job;
    r.group = spec.groupKey();
    r.slices = plan.count;
    r.counters = simulation.counters();
    r.commits = simulation.nvm().commitCount;
    out.slicesDone = plan.count;
    std::remove(snapPath.c_str());
    return out;
}

/** Everything the workers share. */
struct Shared {
    const EngineConfig* config = nullptr;
    SlicePlan plan;
    std::uint64_t jobsTotal = 0;
    std::uint64_t queueTotal = 0;
    std::uint64_t frontier = 0;
    std::vector<std::uint64_t> requeued;              // const after build
    std::unordered_map<std::uint64_t, std::uint32_t> attemptBase;  // const

    std::atomic<std::uint64_t> cursor{0};
    std::atomic<std::uint64_t> started{0};
    /// Set when a throw escapes processJob: no worker claims another
    /// job, and parallelMap rethrows the exception after the join.
    std::atomic<bool> failed{false};

    // The journal lock serializes manifest/results/aggregate updates.
    std::mutex journalMutex;
    ManifestWriter* manifest = nullptr;
    metrics::JsonlWriter* results = nullptr;
    Aggregator* agg = nullptr;
    sim::Counters totals;
    std::uint64_t resultsSinceCompact = 0;
    std::uint64_t quarantinedTotal = 0;

    std::atomic<std::uint64_t> attemptsFailed{0};
    std::atomic<std::uint64_t> resumedFromSnapshot{0};

    bool stop() const
    {
        return failed.load() ||
               (config->stopRequested && config->stopRequested());
    }

    std::uint64_t jobIdAt(std::uint64_t i) const
    {
        if (i < requeued.size())
            return requeued[i];
        return frontier + (i - requeued.size());
    }

    // Journal writes, under journalMutex; a failure throws WriteError.
    void journal(const ManifestRecord& rec)
    {
        mustWrite(manifest->append(rec), config->dir + "/manifest.jsonl");
    }

    void syncJournals()
    {
        mustWrite(results->sync(), config->dir + "/results.jsonl");
        mustWrite(manifest->sync(), config->dir + "/manifest.jsonl");
    }

    void compactLocked()
    {
        resultsSinceCompact = 0;
        const std::string json = agg->toJson(
            jobsTotal, config->space.configHash(), config->seed);
        const std::string path = config->dir + "/aggregate.json";
        mustWrite(writeSnapshotFile(
                      path, std::vector<std::uint8_t>(json.begin(), json.end())),
                  path);
    }
};

/** @return false when the worker should stop claiming work. */
bool
processJob(Shared& sh, std::uint64_t id)
{
    const EngineConfig& config = *sh.config;
    if (config.maxJobsThisRun != 0 &&
        sh.started.fetch_add(1) >= config.maxJobsThisRun)
        return false;
    // Deliberately OUTSIDE per-attempt containment: a throw here ends
    // the run, it is not a job failure (see EngineConfig::beforeJob).
    if (config.beforeJob)
        config.beforeJob(id);

    const JobSpec spec = jobAt(config.space, id);
    std::uint32_t attempt = 0;
    if (auto it = sh.attemptBase.find(id); it != sh.attemptBase.end())
        attempt = it->second;

    while (true) {
        {
            std::lock_guard<std::mutex> lock(sh.journalMutex);
            sh.journal({id, JobState::kRunning, attempt, 0, ""});
        }
        try {
            AttemptOutcome out = runJobOnce(config, spec, sh.plan);
            if (out.resumedFromSnapshot)
                ++sh.resumedFromSnapshot;
            if (out.interrupted) {
                std::lock_guard<std::mutex> lock(sh.journalMutex);
                sh.journal({id, JobState::kRunning, attempt, out.slicesDone,
                            "interrupted"});
                sh.syncJournals();
                return false;
            }
            std::lock_guard<std::mutex> lock(sh.journalMutex);
            // Result line FIRST, manifest `done` second: recovery
            // treats the result record as the done-definition, so this
            // order can at worst repeat a job (deduplicated), never
            // lose one.
            mustWrite(sh.results->append(out.result.toJsonl()),
                      config.dir + "/results.jsonl");
            sh.agg->add(out.result);
            sh.totals += out.result.counters;
            sh.journal({id, JobState::kDone, attempt, out.slicesDone, ""});
            if (++sh.resultsSinceCompact >= kCompactEvery) {
                sh.syncJournals();
                sh.compactLocked();
            }
            return true;
        } catch (const WriteError&) {
            // Fatal to the run, so outside per-job containment: never
            // a failed attempt or a quarantine.
            throw;
        } catch (const std::exception& e) {
            ++sh.attemptsFailed;
            std::string note = e.what();
            if (note.size() > 120)
                note.resize(120);
            const bool exhausted = attempt + 1 >= kMaxAttempts;
            {
                std::lock_guard<std::mutex> lock(sh.journalMutex);
                sh.journal({id, JobState::kFailed, attempt, 0, note});
                if (exhausted) {
                    std::string why = "attempts exhausted";
                    if (!config.specPath.empty())
                        why += "; spec=" + config.specPath;
                    sh.journal(
                        {id, JobState::kQuarantined, attempt, 0, why});
                    ++sh.quarantinedTotal;
                }
            }
            if (exhausted) {
                std::remove(snapshotPath(config.dir, id).c_str());
                return true;
            }
            ++attempt;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                kRetryBackoffMs * static_cast<int>(attempt)));
        }
    }
}

/** One worker's share of the queue: claims of kClaimJobs consecutive
 *  positions until the queue drains or a job asks to stop. */
void
runWorker(Shared& sh)
{
    try {
        while (!sh.stop()) {
            const std::uint64_t c = sh.cursor.fetch_add(kClaimJobs);
            if (c >= sh.queueTotal)
                return;
            const std::uint64_t end = std::min(c + kClaimJobs, sh.queueTotal);
            for (std::uint64_t i = c; i < end; ++i)
                if (sh.stop() || !processJob(sh, sh.jobIdAt(i)))
                    return;
        }
    } catch (...) {
        // A failed durable write or a throwing beforeJob.  The job
        // keeps its journal state, so the next run re-queues it.
        sh.failed.store(true);
        throw;
    }
}

}  // namespace

EngineReport
runCampaign(const EngineConfig& config, exp::ThreadPool& pool)
{
    const CampaignSpace& space = config.space;
    const std::uint64_t total = space.jobCount();
    if (total == 0)
        throw std::runtime_error("campaign: empty job space");
    checkBounds(space);

    const std::string manifestPath = config.dir + "/manifest.jsonl";
    const std::string resultsPath = config.dir + "/results.jsonl";

    // Lock both journals before replaying them: a second writer on this
    // directory is refused before anything is read or appended.
    ManifestWriter manifest(manifestPath, kJournalSyncEvery);
    if (!manifest.ok())
        throw std::runtime_error("campaign: " + manifest.openError());
    metrics::JsonlWriter results(resultsPath, /*append=*/true,
                                 kJournalSyncEvery);
    if (!results.ok())
        throw std::runtime_error("campaign: " + results.openError());

    // ---- Recovery: replay the journal and the result stream. ----
    ManifestRecovery rec = readManifest(manifestPath);
    if (rec.hasHeader) {
        if (rec.totalJobs != total ||
            rec.configHash != space.configHash() || rec.seed != config.seed)
            throw std::runtime_error(
                "campaign: manifest in " + config.dir +
                " belongs to a different campaign (config/seed/job-count "
                "mismatch); refusing to resume");
    } else if (rec.sawAnyJob) {
        throw std::runtime_error(
            "campaign: manifest in " + config.dir +
            " has job records but no valid header, so its campaign is "
            "unknown; refusing to resume");
    }

    Aggregator agg(total);
    std::uint64_t resultFrontier = 0;
    const std::uint64_t tornResults = metrics::readJsonl(
        resultsPath, [&](const metrics::JsonValue& v) {
            const std::optional<JobResult> r = JobResult::fromJson(v);
            if (!r || r->job >= total)
                return false;
            agg.add(*r);
            resultFrontier = std::max(resultFrontier, r->job + 1);
            return true;
        });

    // Fresh-work frontier: nothing above it was ever touched.
    std::uint64_t frontier = resultFrontier;
    if (rec.sawAnyJob)
        frontier = std::max(frontier, rec.maxJob + 1);
    frontier = std::min(frontier, total);

    Shared sh;
    sh.config = &config;
    sh.plan = planSlices(space);
    sh.jobsTotal = total;
    sh.frontier = frontier;
    for (std::uint64_t id = 0; id < frontier; ++id) {
        if (agg.seen(id))
            continue;
        if (rec.stateOf(id) == JobState::kQuarantined) {
            ++sh.quarantinedTotal;
            continue;
        }
        sh.requeued.push_back(id);
        if (auto it = rec.latest.find(id); it != rec.latest.end()) {
            std::uint32_t base = it->second.attempt;
            if (it->second.state == JobState::kFailed)
                ++base;
            if (base > 0)
                sh.attemptBase[id] = base;
        }
    }
    sh.queueTotal =
        static_cast<std::uint64_t>(sh.requeued.size()) + (total - frontier);

    if (!rec.hasHeader)
        mustWrite(manifest.header(total, space.configHash(), config.seed),
                  manifestPath);
    sh.manifest = &manifest;
    sh.results = &results;
    sh.agg = &agg;

    // ---- Workers: one per pool thread, the caller among them. ----
    exp::parallelMap(pool, std::vector<int>(pool.threadCount()), [&sh](int) {
        runWorker(sh);
        return 0;
    });

    // ---- Final compaction + report. ----
    EngineReport report;
    {
        std::lock_guard<std::mutex> lock(sh.journalMutex);
        sh.syncJournals();
        sh.compactLocked();
        report.aggregateJson =
            agg.toJson(total, space.configHash(), config.seed);
        report.groups = agg.groups();
    }
    report.jobsTotal = total;
    report.jobsDone = agg.jobCount();
    report.attemptsFailed = sh.attemptsFailed.load();
    report.jobsQuarantined = sh.quarantinedTotal;
    report.jobsRequeued = static_cast<std::uint64_t>(sh.requeued.size());
    report.resumedFromSnapshot = sh.resumedFromSnapshot.load();
    report.tornManifestLines = rec.tornLines;
    report.tornResultLines = tornResults;
    report.totals = sh.totals;
    report.complete = report.jobsDone + report.jobsQuarantined >= total;
    return report;
}

}  // namespace gecko::campaign
