#ifndef GECKO_ADVERSARY_OPTIMIZER_HPP_
#define GECKO_ADVERSARY_OPTIMIZER_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adversary/knobs.hpp"
#include "campaign/aggregate.hpp"
#include "exp/thread_pool.hpp"

/**
 * @file
 * Seeded deterministic attack optimizer (DESIGN.md §16).
 *
 * The search maximizes denial-of-progress against one defense
 * configuration: rounds of coordinate search (both directions per
 * knob, step-size adaptation on success/failure — the CMA-lite part)
 * plus random restarts, every candidate evaluated as jobs on the
 * crash-tolerant campaign engine.  Consequences of that substrate:
 *
 *  - kill-9 safe: each round is one resumable campaign in
 *    `<dir>/round_<n>`, and completed rounds are journaled to
 *    `<dir>/search.jsonl` (fsync'd) — rerunning the same command
 *    resumes mid-search, mid-round, even mid-job, and converges to the
 *    byte-identical best-attack spec;
 *  - deterministic: candidate proposals derive from (seed, round,
 *    journaled best/step) only, scores fold from integer counters, so
 *    the same seed always emits the same spec;
 *  - replayable: the winner is re-evaluated standalone in
 *    `<dir>/best_eval` from its journaled knobs and must reproduce the
 *    journaled score exactly — the bit-identical-replay contract,
 *    enforced every run.  Its schema-v2 spec (`<dir>/best_spec.json`)
 *    carries the same campaign::Scenario, so replaying the file through
 *    fault::applyToEngine reproduces the best arm's counters.
 */

namespace gecko::adversary {

/** Search budget and the defense under attack.  The victim and its
 *  outage environment are constants (knobs.hpp). */
struct SearchConfig {
    /// Durable root: search.jsonl, round_<n>/, best_eval/,
    /// best_spec.json.  Must exist.
    std::string dir;
    /// Defense preset the attacker optimizes against.
    std::string defense = "static";
    std::string workload = "sensor_loop";
    /// Coordinate-search rounds after the seeding round.
    int rounds = 4;
    /// Random-restart candidates added per round.
    int restarts = 2;
    /// Replication seeds per candidate (jobs = candidates x seeds).
    int seedsPerCandidate = 2;
    std::uint64_t seed = 1;
    double simSeconds = 0.02;
    double sliceSimSeconds = 0.005;
    /// Cooperative stop, polled between jobs (campaign engine flag).
    std::function<bool()> stopRequested;
};

/** One journaled/evaluated candidate. */
struct Candidate {
    AttackKnobs knobs;
    std::uint64_t score = 0;
};

/** What one runSearch() accomplished. */
struct SearchReport {
    /// False = stopped mid-search; rerun to resume.
    bool complete = false;
    /// Rounds finished across all runs (journal length).
    int roundsDone = 0;
    Candidate best;
    /// Journaled vs replayed best score agree (replay contract).
    bool replayMatches = false;
    /// Serialized schema-v2 spec of the winner (also best_spec.json).
    std::string bestSpecJson;
    /// Clean-baseline totals from the standalone best evaluation.
    campaign::GroupTotals cleanTotals;
    /// Best-attack totals from the standalone best evaluation.
    campaign::GroupTotals bestTotals;
    /// EngineReport totals of every round campaign this run executed.
    sim::Counters totals;
};

/**
 * Weighted denial-of-progress objective: commit/completion deficit vs
 * the clean baseline plus the attacked arm's rollback, retry-
 * exhaustion and hard-death counts.  Pure integer arithmetic.
 */
std::uint64_t denialScore(const campaign::GroupTotals& clean,
                          const campaign::GroupTotals& attacked);

/**
 * Run (or resume) the search.  Throws std::runtime_error on journal /
 * campaign-identity corruption (same contract as the engine).
 */
SearchReport runSearch(const SearchConfig& config, exp::ThreadPool& pool);

}  // namespace gecko::adversary

#endif  // GECKO_ADVERSARY_OPTIMIZER_HPP_
