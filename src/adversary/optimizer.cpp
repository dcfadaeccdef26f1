#include "adversary/optimizer.hpp"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "campaign/engine.hpp"
#include "campaign/snapshot.hpp"
#include "metrics/json.hpp"

namespace gecko::adversary {

namespace {

/** Search-journal state reconstructed from completed-round lines. */
struct SearchState {
    int roundsDone = 0;
    AttackKnobs best;
    std::uint64_t bestScore = 0;
    double stepScale = 0.5;
    bool haveBest = false;
};

std::string
candName(int round, int idx)
{
    std::ostringstream os;
    os << "r" << round << "c" << idx;
    return os.str();
}

/** The candidate set of round `round` given the journaled state.
 *  Depends only on (seed, round, best, stepScale) so an interrupted
 *  round re-derives the identical set — and thus the identical
 *  campaign configHash — on resume. */
std::vector<AttackKnobs>
proposeRound(const SearchConfig& config, const SearchState& st, int round)
{
    exp::Rng rng(exp::mixSeed(config.seed,
                              0xad5e4271ull ^ static_cast<std::uint64_t>(round)));
    std::vector<AttackKnobs> out;
    if (round == 0) {
        // Seeding round: the default center plus random restarts.
        out.push_back(clampKnobs(AttackKnobs{}));
        for (int i = 0; i < std::max(1, config.restarts); ++i)
            out.push_back(randomKnobs(rng));
        return out;
    }
    // Coordinate sweep around the incumbent, both directions per knob.
    for (int c = 0; c < kKnobCount; ++c) {
        out.push_back(perturb(st.best, c, +1, st.stepScale));
        out.push_back(perturb(st.best, c, -1, st.stepScale));
    }
    for (int i = 0; i < config.restarts; ++i)
        out.push_back(randomKnobs(rng));
    return out;
}

/** The aggregation group of `scenario`'s arm in a search campaign. */
std::string
groupOf(const SearchConfig& config, const campaign::Scenario& scenario)
{
    campaign::JobSpec job;
    job.workload = config.workload;
    job.scheme = kSearchScheme;
    job.scenario = scenario;
    job.defense = config.defense;
    return job.groupKey();
}

/** Build the one-round campaign space: clean baseline + candidates. */
campaign::CampaignSpace
spaceFor(const SearchConfig& config,
         const std::vector<AttackKnobs>& candidates, int round)
{
    campaign::CampaignSpace space;
    space.workloads = {config.workload};
    space.schemes = {kSearchScheme};
    space.devices = {kSearchDevice};
    space.defenses = {config.defense};
    space.scenarios = {campaign::cleanBaseline(kOutagePeriodS, kOutageOnFrac)};
    for (std::size_t i = 0; i < candidates.size(); ++i)
        space.scenarios.push_back(toScenario(
            candidates[i], candName(round, static_cast<int>(i))));
    space.seeds = campaign::seedRange(std::max(1, config.seedsPerCandidate));
    space.simSeconds = config.simSeconds;
    space.sliceSimSeconds = config.sliceSimSeconds;
    return space;
}

/** Run one campaign (a search round or the best-eval replay), adding
 *  its counter totals to `totals`.
 *  @return its per-group totals, or nullopt on a cooperative stop. */
std::optional<std::map<std::string, campaign::GroupTotals>>
runRoundCampaign(const SearchConfig& config, const std::string& dir,
                 const campaign::CampaignSpace& space,
                 exp::ThreadPool& pool, sim::Counters& totals)
{
    std::filesystem::create_directories(dir);
    campaign::EngineConfig ec;
    ec.dir = dir;
    ec.space = space;
    ec.seed = config.seed;
    ec.stopRequested = config.stopRequested;
    campaign::EngineReport report = campaign::runCampaign(ec, pool);
    totals += report.totals;
    if (report.jobsQuarantined > 0)
        throw std::runtime_error("adversary: quarantined jobs in " + dir);
    if (!report.complete)
        return std::nullopt;
    return std::move(report.groups);
}

/** Fold one parsed search.jsonl line into `st`; false = damaged. */
bool
replayRound(const metrics::JsonValue& v, SearchState* st)
{
    if (v.getString("type") != "round")
        return true;  // candidate records feed the replay tooling
    const auto round = v.getU64("round");
    const auto score = v.getU64("best_score");
    const auto step = v.getNumber("step");
    const metrics::JsonValue* knobs = v.find("best_knobs");
    AttackKnobs best;
    if (!round || *round >= INT_MAX || !score || !step || !knobs ||
        !knobsFromJson(*knobs, &best))
        return false;
    st->roundsDone = static_cast<int>(*round) + 1;
    st->best = best;
    st->bestScore = *score;
    st->stepScale = *step;
    st->haveBest = true;
    return true;
}

}  // namespace

std::uint64_t
denialScore(const campaign::GroupTotals& clean,
            const campaign::GroupTotals& attacked)
{
    const auto deficit = [](std::uint64_t base, std::uint64_t got) {
        return base > got ? base - got : 0;
    };
    // Progress deficits dominate; the attacked arm's recovery churn
    // breaks ties between equally-denying schedules.  Integer weights
    // keep the objective exactly reproducible.
    std::uint64_t score = 0;
    score += 1000 * deficit(clean.counters.exec.completions,
                            attacked.counters.exec.completions);
    score += 100 * deficit(clean.commits, attacked.commits);
    score += 50 * attacked.counters.runtime.rollbacks;
    score += 500 * attacked.counters.runtime.retriesExhausted;
    score += 2000 * attacked.counters.sim.hardDeaths;
    return score;
}

SearchReport
runSearch(const SearchConfig& config, exp::ThreadPool& pool)
{
    if (config.dir.empty())
        throw std::runtime_error("adversary: dir required");
    std::filesystem::create_directories(config.dir);
    const std::string journalPath = config.dir + "/search.jsonl";
    // Lock the journal before replaying it: one search per directory.
    metrics::JsonlWriter journal(journalPath, /*append=*/true,
                                 /*syncEvery=*/1);
    if (!journal.ok())
        throw std::runtime_error("adversary: " + journal.openError());

    // ---- recover journaled state (completed rounds only; a torn
    // tail is the round a crash interrupted, which simply re-runs) ----
    SearchState st;
    metrics::readJsonl(journalPath, [&st](const metrics::JsonValue& v) {
        return replayRound(v, &st);
    });

    const int totalRounds = 1 + std::max(0, config.rounds);
    SearchReport out;
    for (int round = st.roundsDone; round < totalRounds; ++round) {
        const std::vector<AttackKnobs> candidates =
            proposeRound(config, st, round);
        const campaign::CampaignSpace space =
            spaceFor(config, candidates, round);
        const std::string dir =
            config.dir + "/round_" + std::to_string(round);
        const auto groups =
            runRoundCampaign(config, dir, space, pool, out.totals);
        if (!groups) {
            out.roundsDone = st.roundsDone;
            out.best = {st.best, st.bestScore};
            return out;  // cooperative stop; resume later
        }

        const auto cleanIt = groups->find(groupOf(config, space.scenarios[0]));
        if (cleanIt == groups->end())
            throw std::runtime_error("adversary: clean arm missing in " +
                                     dir);

        // Score every candidate; journal each (the evaluated-candidate
        // record the replay tooling feeds on).
        int bestIdx = -1;
        std::uint64_t bestRoundScore = 0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const auto it =
                groups->find(groupOf(config, space.scenarios[i + 1]));
            const std::uint64_t score =
                it == groups->end()
                    ? 0
                    : denialScore(cleanIt->second, it->second);
            std::ostringstream cl;
            cl << "{\"type\":\"cand\",\"round\":" << round
               << ",\"cand\":" << i << ",\"score\":" << score
               << ",\"knobs\":" << knobsJson(candidates[i]) << "}";
            campaign::mustWrite(journal.append(cl.str()), journalPath);
            if (bestIdx < 0 || score > bestRoundScore) {
                bestIdx = static_cast<int>(i);
                bestRoundScore = score;
            }
        }

        // Adopt-or-shrink: a strictly better candidate moves the
        // incumbent and grows the step; a dry round shrinks it (the
        // success-rule step adaptation standing in for a full CMA
        // covariance update).
        if (!st.haveBest || bestRoundScore > st.bestScore) {
            st.best = candidates[static_cast<std::size_t>(bestIdx)];
            st.bestScore = bestRoundScore;
            st.haveBest = true;
            st.stepScale = std::min(1.0, st.stepScale * 1.25);
        } else {
            st.stepScale = std::max(0.05, st.stepScale * 0.6);
        }
        st.roundsDone = round + 1;

        std::ostringstream rl;
        rl << "{\"type\":\"round\",\"round\":" << round
           << ",\"best_score\":" << st.bestScore
           << ",\"step\":" << metrics::roundTripNumber(st.stepScale)
           << ",\"clean_commits\":" << cleanIt->second.commits
           << ",\"clean_escalations\":"
           << cleanIt->second.counters.defense.escalations
           << ",\"best_knobs\":" << knobsJson(st.best) << "}";
        campaign::mustWrite(journal.append(rl.str()) && journal.sync(),
                            journalPath);
    }

    // ---- standalone best evaluation: the replay contract ----
    // The winner re-runs alone, from the knob state the journal pinned,
    // in its own campaign directory.  Job results depend only on the
    // axis values and the engine seed — not on job ids — so this
    // single-candidate space must reproduce the journaled score
    // exactly.
    campaign::CampaignSpace evalSpace = spaceFor(config, {}, 0);
    evalSpace.scenarios.push_back(toScenario(st.best, "best"));
    const std::string evalDir = config.dir + "/best_eval";
    const auto groups =
        runRoundCampaign(config, evalDir, evalSpace, pool, out.totals);
    if (!groups) {
        out.roundsDone = st.roundsDone;
        out.best = {st.best, st.bestScore};
        return out;
    }
    const auto cleanIt = groups->find(groupOf(config, evalSpace.scenarios[0]));
    const auto bestIt = groups->find(groupOf(config, evalSpace.scenarios[1]));
    if (cleanIt == groups->end() || bestIt == groups->end())
        throw std::runtime_error("adversary: best_eval arms missing");

    out.complete = true;
    out.roundsDone = st.roundsDone;
    out.best = {st.best, st.bestScore};
    out.cleanTotals = cleanIt->second;
    out.bestTotals = bestIt->second;
    out.replayMatches =
        denialScore(out.cleanTotals, out.bestTotals) == st.bestScore;

    // Serialize the winner as a schema-v2 spec (the durable replay
    // artifact named in EXPERIMENTS.md).
    const fault::FaultSpec spec =
        toSpec(st.best, "best-vs-" + config.defense, config.seed,
               std::max(1, config.seedsPerCandidate), config.simSeconds,
               config.sliceSimSeconds);
    out.bestSpecJson = fault::serializeSpec(spec);
    const std::string specPath = config.dir + "/best_spec.json";
    campaign::mustWrite(
        campaign::writeSnapshotFile(
            specPath, std::vector<std::uint8_t>(out.bestSpecJson.begin(),
                                                out.bestSpecJson.end())),
        specPath);
    return out;
}

}  // namespace gecko::adversary
