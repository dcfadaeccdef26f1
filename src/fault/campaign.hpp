#ifndef GECKO_FAULT_CAMPAIGN_HPP_
#define GECKO_FAULT_CAMPAIGN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/thread_pool.hpp"
#include "fault/fault.hpp"
#include "sim/machine.hpp"

namespace gecko::trace {
class Collector;
}  // namespace gecko::trace

/**
 * @file
 * The deterministic fault-injection campaign driver.
 *
 * A campaign fans (workload x scheme x injector x seed) cases across the
 * experiment thread pool, checks each against a golden fault-free
 * oracle (final output streams, final NVM image, exactly-once I/O),
 * auto-minimises the failing cases (bisecting the injection event and
 * the target word), and emits
 *  - a deterministic text report (per scheme x injector outcome counts
 *    and defence-counter sums), and
 *  - a replayable corpus of minimised failures keyed by the campaign
 *    seed.
 * Both artifacts are pure functions of the campaign config: the same
 * GECKO_SEED produces byte-identical bytes under GECKO_THREADS=1 and
 * GECKO_THREADS=8 (exp::parallelMap preserves input order and every
 * case owns its simulator instances).
 */

namespace gecko::fault {

/** Campaign parameters. */
struct CampaignConfig {
    /// Master seed (GECKO_SEED / --seed=); every case seed derives from
    /// it via exp::mixSeed.
    std::uint64_t seed = 1;
    /// Total cases across the whole grid.
    int cases = 5000;
    /// Machine-level victim workloads (fast kernels; sim-level cases
    /// always use sensor_loop, the paper's attack victim).
    std::vector<std::string> workloads = {"crc16", "bitcnt", "sensor_loop"};
    std::vector<compiler::Scheme> schemes = {
        compiler::Scheme::kNvp, compiler::Scheme::kRatchet,
        compiler::Scheme::kGeckoNoPrune, compiler::Scheme::kGecko};
    /// Failing cases kept (and minimised) per (workload, scheme,
    /// injector) group; the report logs how many were dropped.
    int corpusPerGroup = 4;
    /// Sim-level cases: max simulated seconds before kTimeout.
    double simTimeBudgetS = 1.5;
    /// Machine-level livelock watchdog: run-loop iterations before a
    /// case is declared kLivelock.  0 = use GECKO_WATCHDOG from the
    /// environment, falling back to the historical 400000.
    std::uint64_t watchdogBudget = 0;
    /// Spec-file injector mix: when non-empty, replaces the built-in
    /// injector schedule in makeCampaignCases (cases cycle through this
    /// list instead).  Empty = the historical default schedule.
    std::vector<InjectorKind> injectorMix;
    /// Pool override for tests (null = the process-wide pool).
    exp::ThreadPool* pool = nullptr;
    /// Event-trace sink: when set, every case records into its own
    /// buffer labelled "workload|scheme|injector|seed" with the case
    /// ordinal as merge index (null = tracing off).  Minimisation
    /// probes are untraced — only the primary run of each case is.
    trace::Collector* collector = nullptr;
};

/** Outcome counts for one (scheme, injector) cell. */
struct GroupCounts {
    std::uint64_t cases = 0;
    std::uint64_t ok = 0;
    std::uint64_t diverged = 0;
    std::uint64_t faulted = 0;
    std::uint64_t livelock = 0;
    std::uint64_t timeout = 0;
    std::uint64_t notInjected = 0;
    /// Detected-then-survived attacks (adaptive defense).
    std::uint64_t defended = 0;

    std::uint64_t corrupted() const
    {
        return diverged + faulted + livelock;
    }
};

/** Everything a campaign produces. */
struct CampaignResult {
    std::vector<CaseResult> cases;
    /// Minimised failing cases that made it into the corpus.
    std::vector<CaseResult> corpusCases;
    /// Deterministic artifacts (see file header).
    std::string report;
    std::string corpus;
    /// counts[scheme][injector].
    std::vector<std::vector<GroupCounts>> counts;
    /// No corruption outcome in any GECKO / GECKO-noprune case under
    /// the paper's storage/sensing fault model (instruction-stream
    /// faults are a distinct threat class, tallied separately below).
    bool geckoClean = true;
    std::uint64_t geckoCorruptions = 0;
    std::uint64_t nvpCorruptions = 0;
    /// Instruction-fault containment tallies: corruptions vs cases per
    /// scheme class.  GECKO cannot *detect* a wrong architectural value
    /// (no storage guard sees it), but the skipped-checkpoint death
    /// after the glitch usually discards it — so containment is a rate,
    /// not a verdict.
    std::uint64_t instrGeckoCases = 0;
    std::uint64_t instrGeckoCorruptions = 0;
    std::uint64_t instrNvpCases = 0;
    std::uint64_t instrNvpCorruptions = 0;
    /// GECKO's instruction-fault corruption rate is no worse than
    /// NVP's (vacuously true when either class ran no cases).
    bool instrContained() const
    {
        if (instrGeckoCases == 0 || instrNvpCases == 0)
            return true;
        return static_cast<double>(instrGeckoCorruptions) *
                   static_cast<double>(instrNvpCases) <=
               static_cast<double>(instrNvpCorruptions) *
                   static_cast<double>(instrGeckoCases);
    }
    /// Aggregated defence counters across all cases.
    std::uint64_t corruptedRestores = 0;
    std::uint64_t crcRejects = 0;
    std::uint64_t slotRepairs = 0;
    std::uint64_t ckptSaveRetries = 0;
    std::uint64_t retriesExhausted = 0;
    std::uint64_t integrityDegradations = 0;
    /// Adaptive-defense aggregates (EMI-burst cases).
    std::uint64_t defendedCases = 0;
    std::uint64_t defenseEscalations = 0;
    std::uint64_t defenseRatchetTrips = 0;
};

/** Deterministic case list for a config (grid enumeration). */
std::vector<CaseSpec> makeCampaignCases(const CampaignConfig& config);

/**
 * Execute one case standalone (also the corpus replay entry point).
 * Pure function of the spec: compiles/looks up the victim, derives all
 * injection parameters from the case seed, runs against the golden
 * oracle.
 *
 * @param watchdogBudget machine-level livelock budget; 0 resolves from
 *        GECKO_WATCHDOG, falling back to 400000.
 * @param backend execution tier of the victim machine.  The injection
 *        schedule and the oracle are tier-independent, so both
 *        backends must produce identical CaseResults — the
 *        step-versus-block differential in fuzz_test holds the
 *        campaign to that.
 */
CaseResult runCase(const CaseSpec& spec, double simTimeBudgetS = 1.5,
                   std::uint64_t watchdogBudget = 0,
                   sim::ExecBackend backend = sim::defaultExecBackend());

/** Run the full campaign. */
CampaignResult runCampaign(const CampaignConfig& config);

}  // namespace gecko::fault

#endif  // GECKO_FAULT_CAMPAIGN_HPP_
