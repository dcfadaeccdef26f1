#ifndef GECKO_CAMPAIGN_AGGREGATE_HPP_
#define GECKO_CAMPAIGN_AGGREGATE_HPP_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "metrics/json.hpp"
#include "sim/intermittent_sim.hpp"

/**
 * @file
 * Streaming campaign result aggregation (DESIGN.md §13).
 *
 * Each finished job appends one `JobResult` line to `results.jsonl`;
 * the `Aggregator` folds those lines into per-group integer sums with
 * memory bounded by the number of *groups* (workload × scheme ×
 * scenario), not the number of jobs.  Everything that reaches the
 * aggregate is an integer counter summed in job-id-independent fashion
 * (addition over u64 is commutative), so the rendered JSON is
 * byte-identical no matter how jobs interleaved across shards, threads,
 * or kill/resume cycles — that property is what the campaign's
 * kill-and-resume differential oracle checks.  Wall-clock times and
 * journal-damage counters are deliberately excluded: they are real but
 * not deterministic, and live in the bench report instead.
 */

namespace gecko::campaign {

/** Telemetry of one completed job, as streamed to results.jsonl. */
struct JobResult {
    std::uint64_t job = 0;
    /// Aggregation key: "workload/scheme/scenario" (device omitted
    /// while the space has one device; the key is free-form).
    std::string group;
    /// Simulation slices the job ran as (resume granularity).
    std::uint64_t slices = 0;
    /// The victim's counters at job end.  results.jsonl streams 16 of
    /// them (aggregate.cpp); the rest parse back as 0.
    sim::Counters counters;
    /// Forward progress (sim::Nvm): committed region boundaries.
    /// Optional on the wire (absent in pre-adversarial results.jsonl
    /// lines, which parse as 0) — the denial-of-progress objective's
    /// numerator.
    std::uint64_t commits = 0;

    std::string toJsonl() const;

    /** The record of a parsed results.jsonl line; nullopt if a field
     *  is missing or mistyped. */
    static std::optional<JobResult> fromJson(const metrics::JsonValue& v);
};

/** Per-group integer sums of the streamed JobResult fields. */
struct GroupTotals {
    std::uint64_t jobs = 0;
    std::uint64_t slices = 0;
    sim::Counters counters;
    std::uint64_t commits = 0;

    bool operator==(const GroupTotals&) const = default;
};

/**
 * Folds JobResults into per-group totals.  Duplicate job ids are
 * dropped (a job can legitimately appear twice in results.jsonl when
 * a crash lands between the result write and the manifest `done`
 * record — the re-run appends an identical line).
 */
class Aggregator
{
  public:
    /** @param totalJobs job-space size (bounds the dedup bitmap). */
    explicit Aggregator(std::uint64_t totalJobs);

    /** @return true if the result was new (not a duplicate id). */
    bool add(const JobResult& r);

    /** Jobs folded in (dedup'd). */
    std::uint64_t jobCount() const { return jobCount_; }

    bool seen(std::uint64_t job) const
    {
        return job < seen_.size() && seen_[job];
    }

    const std::map<std::string, GroupTotals>& groups() const
    {
        return groups_;
    }

    /**
     * Render the deterministic aggregate (bench JSON v4 flavoured):
     * groups in key order, integer counters only.  Byte-identical for
     * any execution interleaving of the same completed job set.
     */
    std::string toJson(std::uint64_t totalJobs, std::uint64_t configHash,
                       std::uint64_t seed) const;

  private:
    std::vector<bool> seen_;
    std::uint64_t jobCount_ = 0;
    // std::map: deterministic key-ordered iteration for rendering.
    std::map<std::string, GroupTotals> groups_;
};

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_AGGREGATE_HPP_
