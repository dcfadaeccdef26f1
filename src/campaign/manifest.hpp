#ifndef GECKO_CAMPAIGN_MANIFEST_HPP_
#define GECKO_CAMPAIGN_MANIFEST_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/json.hpp"

/**
 * @file
 * The resumable campaign manifest: an append-only JSONL journal of job
 * state transitions (DESIGN.md §13).
 *
 * State machine per job:
 *
 *     pending ──▶ running ──▶ done
 *                   │  ▲
 *                   ▼  │ (retry, attempt+1)
 *                 failed ──▶ quarantined   (attempts exhausted)
 *
 * The journal is the *only* recovery input: a SIGKILL'd campaign
 * restarts by replaying it.  Records are fsync'd at a bounded cadence
 * through metrics::JsonlWriter and read back through the strict JSONL
 * reader (metrics::readJsonl): a torn tail, an unparseable line or a
 * record missing a field is dropped and counted, never fatal, and the
 * affected job re-runs.  Jobs themselves are never materialized here;
 * the journal only names ids, so memory stays bounded by *touched*
 * jobs, not the job-space size.
 */

namespace gecko::campaign {

/** Journal job states. */
enum class JobState : std::uint8_t {
    kPending = 0,
    kRunning = 1,
    kDone = 2,
    kFailed = 3,
    kQuarantined = 4,
};

/** Stable lowercase name ("pending", "running", ...). */
const char* jobStateName(JobState s);

/** One journal line. */
struct ManifestRecord {
    std::uint64_t job = 0;
    JobState state = JobState::kPending;
    /// 0-based execution attempt this transition belongs to.
    std::uint32_t attempt = 0;
    /// Simulation slices completed (mid-job checkpoint progress).
    std::uint64_t slices = 0;
    /// Free-text diagnostic (failure reason); kept short.
    std::string note;

    std::string toJsonl() const;
};

/** Appends journal lines; one instance per campaign run. */
class ManifestWriter
{
  public:
    /**
     * @param path      journal file, opened in append mode
     * @param syncEvery fsync cadence in records (bounded-loss window)
     */
    explicit ManifestWriter(const std::string& path,
                            std::size_t syncEvery = 32);

    bool ok() const { return out_.ok(); }
    const std::string& openError() const { return out_.openError(); }

    /** Write the campaign header (once, on a fresh journal). */
    bool header(std::uint64_t totalJobs, std::uint64_t configHash,
                std::uint64_t seed);

    bool append(const ManifestRecord& rec);

    /** Flush + fsync now (shutdown path). */
    bool sync() { return out_.sync(); }

  private:
    metrics::JsonlWriter out_;
};

/** Replay result of a journal. */
struct ManifestRecovery {
    bool hasHeader = false;
    std::uint64_t totalJobs = 0;
    std::uint64_t configHash = 0;
    std::uint64_t seed = 0;
    /// Latest observed record per touched job.
    std::unordered_map<std::uint64_t, ManifestRecord> latest;
    /// Highest job id any record named (+1 = the fresh-work frontier
    /// lower bound).
    std::uint64_t maxJob = 0;
    bool sawAnyJob = false;
    /// Torn, unparseable or incomplete lines dropped.  A crash tears
    /// only the tail; the next writer terminates it, so it reads as
    /// one damaged line ever after.
    std::uint64_t tornLines = 0;
    /// Torn lines as "<path>:<line>"; readResults appends its own.
    std::vector<std::string> damagedRecords;

    JobState stateOf(std::uint64_t job) const
    {
        auto it = latest.find(job);
        return it == latest.end() ? JobState::kPending : it->second.state;
    }
};

/**
 * Replay a journal file.  A missing file yields a default recovery
 * (fresh campaign).  Never throws on content: damage is counted in
 * `tornLines` and the affected transitions are simply lost — the
 * engine re-queues such jobs, which is always safe (job execution is
 * deterministic and results are deduplicated by id).
 */
ManifestRecovery readManifest(const std::string& path);

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_MANIFEST_HPP_
