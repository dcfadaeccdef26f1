#ifndef GECKO_FAULT_CORPUS_HPP_
#define GECKO_FAULT_CORPUS_HPP_

#include <string>
#include <vector>

#include "fault/fault.hpp"

/**
 * @file
 * The replayable failure corpus.
 *
 * A corpus is a plain-text file keyed by the campaign's GECKO_SEED: a
 * header naming the seed, then one `case` line per (minimised) failing
 * case.  Every line is self-contained — `fault_campaign
 * --replay=<file>` re-runs each case standalone and checks it still
 * produces the recorded outcome.  Serialisation is fully deterministic
 * (no timestamps, no wall-clock), so the same seed yields a
 * byte-identical corpus regardless of GECKO_THREADS.
 */

namespace gecko::fault {

/** One corpus entry: a spec plus its recorded outcome. */
struct CorpusEntry {
    CaseSpec spec;
    CaseOutcome outcome = CaseOutcome::kOk;
};

/** Serialise one entry as a `case` line (no trailing newline). */
std::string formatCorpusLine(const CaseResult& result);

/**
 * Parse one `case` line.
 * @return false (with *err set) on malformed input.
 */
bool parseCorpusLine(const std::string& line, CorpusEntry* out,
                     std::string* err);

/** Serialise a whole corpus (header + one line per result). */
std::string formatCorpus(std::uint64_t campaignSeed,
                         const std::vector<CaseResult>& failures);

/**
 * Parse a corpus file's contents.
 * @throws std::runtime_error on malformed lines.
 */
std::vector<CorpusEntry> parseCorpus(const std::string& text,
                                     std::uint64_t* campaignSeed);

}  // namespace gecko::fault

#endif  // GECKO_FAULT_CORPUS_HPP_
