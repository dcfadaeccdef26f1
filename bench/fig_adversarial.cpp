#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/optimizer.hpp"
#include "bench_util.hpp"
#include "metrics/json.hpp"

/**
 * @file
 * Defense-vs-best-attack matrix (DESIGN.md §16).
 *
 * For each defense preset the seeded adversarial optimizer searches the
 * attack-knob space (frequency, amplitude, duty cycle, outage phase,
 * envelope, grid cell) for the schedule that maximizes
 * denial-of-progress, then re-evaluates the winner standalone from its
 * journaled knobs — the bit-identical replay contract — and writes it
 * as a schema-v2 spec that campaign_runner --spec replays.  The
 * matrix row per defense reports the best attack's score, its knobs and
 * the clean/attacked progress counters; the raw rows ride in the bench
 * report's `figure_data` (schema v7).
 *
 * The search state is durable: every round is a crash-tolerant campaign
 * under --dir, so SIGKILL + rerun resumes mid-search and converges to
 * the byte-identical matrix (tests/adversary_kill_resume.sh).
 *
 * Self-checks (exit status):
 *  - every best attack replays to exactly its journaled score;
 *  - the clean arm never escalates the controller (zero false
 *    positives) under every defense;
 *  - the search finds a nonzero-denial attack against the static
 *    (undefended) configuration.
 *
 * Usage: fig_adversarial [--dir=PATH] [--fresh] [--quick]
 *                        [--defenses=a,b] [--rounds=N] [--restarts=N]
 *                        [--seeds=N] [--sim=S] [--threads=N] [--seed=N]
 */

namespace {

using namespace gecko;
using bench::flagValue;

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::installSignalStop();

    std::string dir = "adversarial_out";
    bool fresh = false;
    bool quick = false;
    std::vector<std::string> defenses = {"static", "adaptive", "strict"};

    adversary::SearchConfig base;
    base.rounds = 4;
    base.restarts = 2;
    base.seedsPerCandidate = 2;
    base.simSeconds = 0.02;
    base.sliceSimSeconds = 0.005;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--dir=", 0) == 0) {
            dir = arg.substr(6);
        } else if (arg == "--fresh") {
            fresh = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--defenses=", 0) == 0) {
            defenses = bench::splitList(arg.substr(11));
        } else if (arg.rfind("--rounds=", 0) == 0) {
            base.rounds = flagValue(arg, 0, 1000);
        } else if (arg.rfind("--restarts=", 0) == 0) {
            base.restarts = flagValue(arg, 0, 1000);
        } else if (arg.rfind("--seeds=", 0) == 0) {
            base.seedsPerCandidate = flagValue(arg, 1, 100000);
        } else if (arg.rfind("--sim=", 0) == 0) {
            base.simSeconds = flagValue(arg, 1e-6, 1e6);
        } else if (arg.rfind("--workload=", 0) == 0) {
            base.workload = arg.substr(11);
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
        base.rounds = 1;
        base.restarts = 1;
        base.seedsPerCandidate = 1;
        base.simSeconds = 0.01;
        base.sliceSimSeconds = 0.0025;
        if (defenses.size() > 2)
            defenses = {"static", "adaptive"};
    }
    base.seed = exp::globalSeed() != 0 ? exp::globalSeed() : 1;
    base.stopRequested = [] {
        return bench::stopSignal().load() != 0;
    };

    std::error_code ec;
    if (fresh)
        std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);

    std::vector<adversary::SearchReport> rows;
    for (const std::string& defense : defenses) {
        adversary::SearchConfig sc = base;
        sc.defense = defense;
        sc.dir = dir + "/" + defense;
        adversary::SearchReport rep;
        try {
            rep = adversary::runSearch(sc, exp::ThreadPool::global());
        } catch (const std::exception& e) {
            std::cerr << "fig_adversarial: " << e.what() << "\n";
            return 1;
        }
        bench::noteCounters(rep.totals);
        if (!rep.complete) {
            std::cerr << "[adversarial] stopped mid-search ("
                      << defense << ", rounds_done=" << rep.roundsDone
                      << "); rerun to resume\n";
            bench::writeBenchReport("fig_adversarial", "interrupted");
            return bench::stopSignal().load() != 0 ? 3 : 4;
        }
        rows.push_back(rep);
    }

    // ---- deterministic matrix (stdout; diffed by the kill-resume
    // oracle) ----
    const char* scheme = compiler::schemeName(adversary::kSearchScheme);
    std::cout << "=== Adversarial search: defense vs best attack ("
              << base.workload << "/" << scheme << ") ===\n\n";
    std::cout << "defense    score      clean→attacked commits   "
                 "rollbacks retries deaths escal  replay\n";
    std::string figRows = "[";
    bool ok = true;
    auto check = [&](bool cond, const std::string& what) {
        if (!cond) {
            std::cout << "CHECK FAILED: " << what << "\n";
            ok = false;
        }
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const adversary::SearchReport& r = rows[i];
        const std::string& defense = defenses[i];
        const sim::Counters& best = r.bestTotals.counters;
        const std::uint64_t cleanEscalations =
            r.cleanTotals.counters.defense.escalations;
        std::ostringstream line;
        line << defense;
        line << std::string(defense.size() < 11 ? 11 - defense.size() : 1,
                            ' ');
        line << r.best.score << "  " << r.cleanTotals.commits << "→"
             << r.bestTotals.commits << "  rb=" << best.runtime.rollbacks
             << " re=" << best.runtime.retriesExhausted
             << " hd=" << best.sim.hardDeaths
             << " es=" << best.defense.escalations
             << (r.replayMatches ? "  replay-ok" : "  REPLAY-MISMATCH");
        std::cout << line.str() << "\n";
        std::cout << "  knobs: " << adversary::knobsJson(r.best.knobs)
                  << "\n";

        if (figRows.size() > 1)
            figRows += ",";
        figRows += "{\"defense\":\"" + metrics::jsonEscape(defense) +
                   "\",\"score\":" + std::to_string(r.best.score) +
                   ",\"clean_commits\":" +
                   std::to_string(r.cleanTotals.commits) +
                   ",\"attacked_commits\":" +
                   std::to_string(r.bestTotals.commits) +
                   ",\"rollbacks\":" +
                   std::to_string(best.runtime.rollbacks) +
                   ",\"retries_exhausted\":" +
                   std::to_string(best.runtime.retriesExhausted) +
                   ",\"hard_deaths\":" +
                   std::to_string(best.sim.hardDeaths) +
                   ",\"escalations\":" +
                   std::to_string(best.defense.escalations) +
                   ",\"clean_escalations\":" +
                   std::to_string(cleanEscalations) +
                   ",\"rounds\":" + std::to_string(r.roundsDone) +
                   ",\"replay_ok\":" +
                   (r.replayMatches ? "true" : "false") +
                   ",\"knobs\":" + adversary::knobsJson(r.best.knobs) +
                   "}";

        check(r.replayMatches, defense + ": best attack did not replay "
                                         "to its journaled score");
        check(cleanEscalations == 0,
              defense + ": clean-run false positives (escalations=" +
                  std::to_string(cleanEscalations) + ")");
        if (defense == "static")
            check(r.best.score > 0,
                  "search found no denial against the static config");
    }
    figRows += "]";
    bench::telemetry().figureData =
        "{\"workload\":\"" + metrics::jsonEscape(base.workload) +
        "\",\"scheme\":\"" + scheme +
        "\",\"seed\":" + std::to_string(base.seed) +
        ",\"sim_s\":" + num(base.simSeconds) +
        ",\"outage_period_s\":" + num(adversary::kOutagePeriodS) +
        ",\"outage_on_frac\":" + num(adversary::kOutageOnFrac) +
        ",\"rows\":" + figRows + "}";

    std::cout << "\nEach best attack is serialized to "
              << "<dir>/<defense>/best_spec.json; replay with\n  "
              << "campaign_runner --fresh --dir=out "
              << "--spec=.../best_spec.json --workloads=" << base.workload
              << " --schemes=" << scheme
              << " --defenses=<defense>\n";
    std::cout << (ok ? "# adversarial checks passed\n"
                     : "# adversarial checks FAILED\n");
    int rc = bench::writeBenchReport("fig_adversarial",
                                     ok ? "pass" : "fail");
    return ok ? rc : 1;
}
