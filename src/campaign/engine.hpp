#ifndef GECKO_CAMPAIGN_ENGINE_HPP_
#define GECKO_CAMPAIGN_ENGINE_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/scenario.hpp"
#include "compiler/pipeline.hpp"
#include "exp/thread_pool.hpp"

/**
 * @file
 * The crash-tolerant campaign engine (DESIGN.md §13).
 *
 * A campaign is a cartesian job space — workload × scheme × attack
 * scenario × seed — executed as independent deterministic simulations.
 * The engine provides the durability layer around that space:
 *
 *  - a resumable manifest (campaign/manifest) journals every job state
 *    transition, so a SIGKILL'd campaign restarts exactly where it
 *    stopped, re-queuing in-flight jobs;
 *  - per-job simulator snapshots (campaign/snapshot) let long jobs
 *    resume mid-simulation at slice granularity;
 *  - the pool's threads (exp::parallelFor) claim chunks of
 *    consecutive queue positions and execute each job with
 *    retry-with-backoff and poison-job quarantine; a throw outside
 *    per-job containment ends the run, and a resume re-queues the
 *    unfinished jobs;
 *  - results stream to `results.jsonl` and fold into a deterministic
 *    aggregate (campaign/aggregate) compacted periodically to
 *    `aggregate.json`.
 *
 * Everything that survives into `aggregate.json` is an integer counter
 * summed commutatively, so a killed-and-resumed campaign produces the
 * byte-identical aggregate of an uninterrupted run — the property the
 * kill-and-resume oracle (tests/campaign_kill_resume.sh) enforces.
 */

namespace gecko::campaign {

/** The cartesian job space. */
struct CampaignSpace {
    std::vector<std::string> workloads;
    std::vector<compiler::Scheme> schemes;
    std::vector<std::string> devices = {"MSP430FR5994"};
    std::vector<Scenario> scenarios;
    /// Defense-configuration axis (preset names resolved by
    /// defense::presetByName): "static" = controller off (historical
    /// behaviour), "adaptive" = controller defaults, "strict" =
    /// tightened degraded-entry thresholds.  The default single
    /// "static" entry hashes exactly like the pre-axis space, so old
    /// journals stay resumable.
    std::vector<std::string> defenses = {"static"};
    std::vector<std::uint64_t> seeds;
    /// Simulated seconds per job.
    double simSeconds = 0.05;
    /// Snapshot/stop granularity; <= 0 runs each job as one slice.
    /// Jobs ALWAYS execute slice-by-slice (whether or not a stop or
    /// kill happens) so a resumed job replays the identical quantum
    /// boundaries of an uninterrupted one.
    double sliceSimSeconds = 0.0;

    std::uint64_t jobCount() const;

    /** FNV-1a over the canonical space description (identity guard). */
    std::uint64_t configHash() const;
};

/** Replication seeds 1..count, the seed axis of a space. */
std::vector<std::uint64_t> seedRange(int count);

/** One decoded job. */
struct JobSpec {
    std::uint64_t job = 0;
    std::string workload;
    compiler::Scheme scheme = compiler::Scheme::kGecko;
    std::string device;
    Scenario scenario;
    /// Defense preset name ("static" = controller off).
    std::string defense = "static";
    std::uint64_t seed = 0;

    /** Aggregation key: "workload/scheme/scenario[/defense]". */
    std::string groupKey() const;
};

/** Decode job `id` from the space (mixed-radix; id < jobCount()). */
JobSpec jobAt(const CampaignSpace& space, std::uint64_t id);

/// Total attempts per job before quarantine.
inline constexpr int kMaxAttempts = 3;

/** Engine knobs. */
struct EngineConfig {
    /// Campaign directory: manifest.jsonl, results.jsonl,
    /// aggregate.json, snap_<job>.bin all live here.  Must exist.
    std::string dir;
    CampaignSpace space;
    /// Campaign identity seed (recorded in the manifest header and
    /// mixed into job seeds).
    std::uint64_t seed = 1;
    /// Path of the spec file this campaign was launched from ("" =
    /// flag-driven).  Recorded in quarantine notes so a poisoned
    /// spec-driven job names its spec in the manifest.
    std::string specPath;
    /// Cap on jobs *started* this run (0 = no cap); the rest stay
    /// pending for a later resume.  Lets tests/drivers make bounded
    /// progress deliberately.
    std::uint64_t maxJobsThisRun = 0;
    /// Cooperative stop (signal flag): checked between jobs and
    /// between slices.  A mid-job stop snapshots and journals progress
    /// without consuming an attempt.
    std::function<bool()> stopRequested;
    /// Test hook: runs on the worker thread before each job's attempt
    /// loop.  A throw here is OUTSIDE per-job containment: it ends the
    /// run and runCampaign rethrows it; the job is re-queued on resume.
    std::function<void(std::uint64_t job)> beforeJob;
};

/** What one run() accomplished. */
struct EngineReport {
    std::uint64_t jobsTotal = 0;
    /// Jobs with a result record after this run (includes prior runs).
    std::uint64_t jobsDone = 0;
    /// Failed attempts observed this run.
    std::uint64_t attemptsFailed = 0;
    std::uint64_t jobsQuarantined = 0;
    /// In-flight/failed jobs re-queued during recovery.
    std::uint64_t jobsRequeued = 0;
    /// Requeued jobs that resumed from a mid-job snapshot.
    std::uint64_t resumedFromSnapshot = 0;
    /// Torn journal lines dropped during recovery.
    std::uint64_t tornManifestLines = 0;
    std::uint64_t tornResultLines = 0;
    /// Each as "<path>:<line>", the manifest's first.
    std::vector<std::string> damagedRecords;
    /// Every job done or quarantined.
    bool complete = false;
    /// The deterministic aggregate (also compacted to aggregate.json).
    std::string aggregateJson;
    /// Its per-group totals, keyed by JobSpec::groupKey().
    std::map<std::string, GroupTotals> groups;
    /// Counters of the jobs this run completed, each counted whole, so
    /// the runs of one campaign sum to its aggregate (the unarchived
    /// burst diagnostics cover only what this run simulated).
    sim::Counters totals;
};

/**
 * Run (or resume) the campaign in `config.dir` on `pool`.  The calling
 * thread takes part as a worker.  Throws std::runtime_error when the
 * directory holds a manifest for a *different* campaign (config-hash /
 * seed / job-count mismatch) or job records behind no valid header —
 * resuming someone else's journal would silently corrupt the aggregate
 * — and when another writer holds the directory's journals.  Throws
 * WriteError (campaign/snapshot) naming the file when a journal,
 * snapshot or aggregate write fails, and rethrows a throwing beforeJob:
 * the run ends there, and a resume re-queues every unfinished job.
 */
EngineReport runCampaign(const EngineConfig& config, exp::ThreadPool& pool);

/** Replay a `total`-job results journal as recovery does: `fn` sees
 *  each result in the space, any other line is torn (metrics::readJsonl). */
std::uint64_t readResults(const std::string& path, std::uint64_t total,
                          const std::function<void(const JobResult&)>& fn,
                          std::vector<std::string>* damaged = nullptr);

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_ENGINE_HPP_
