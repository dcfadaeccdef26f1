#include "fault/corpus.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "metrics/json.hpp"

namespace gecko::fault {

namespace {

/** All of `text` as a signed decimal integer of type T. */
template <class T>
bool
parseSigned(const std::string& text, T* out)
{
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

}  // namespace

std::string
formatCorpusLine(const CaseResult& result)
{
    std::ostringstream os;
    os << "case workload=" << result.spec.workload
       << " scheme=" << compiler::schemeName(result.spec.scheme)
       << " injector=" << injectorName(result.spec.injector)
       << " seed=" << result.spec.seed << " injectAt=" << result.injectAt
       << " word=" << result.word
       << " outcome=" << outcomeName(result.outcome);
    return os.str();
}

bool
parseCorpusLine(const std::string& line, CorpusEntry* out, std::string* err)
{
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag != "case") {
        *err = "line does not start with 'case'";
        return false;
    }
    CorpusEntry entry;
    std::string token;
    while (is >> token) {
        auto eq = token.find('=');
        if (eq == std::string::npos) {
            *err = "malformed token: " + token;
            return false;
        }
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        // Numbers are read whole: "12x" or "-1" is damage, not 12 or
        // 2^64 - 1.
        bool whole = true;
        if (key == "workload") {
            entry.spec.workload = value;
        } else if (key == "scheme") {
            if (!compiler::schemeFromName(value, &entry.spec.scheme)) {
                *err = "unknown scheme: " + value;
                return false;
            }
        } else if (key == "injector") {
            if (!injectorFromName(value, &entry.spec.injector)) {
                *err = "unknown injector: " + value;
                return false;
            }
        } else if (key == "seed") {
            whole = metrics::parseU64(value, &entry.spec.seed);
        } else if (key == "injectAt") {
            whole = parseSigned(value, &entry.spec.injectAtOverride);
        } else if (key == "word") {
            whole = parseSigned(value, &entry.spec.wordOverride);
        } else if (key == "outcome") {
            if (!outcomeFromName(value, &entry.outcome)) {
                *err = "unknown outcome: " + value;
                return false;
            }
        } else {
            *err = "unknown key: " + key;
            return false;
        }
        if (!whole) {
            *err = "bad " + key + " value: " + value;
            return false;
        }
    }
    if (entry.spec.workload.empty()) {
        *err = "missing workload";
        return false;
    }
    *out = entry;
    return true;
}

std::string
formatCorpus(std::uint64_t campaignSeed,
             const std::vector<CaseResult>& failures)
{
    std::ostringstream os;
    os << "# gecko-fault-corpus v1\n";
    os << "# seed " << campaignSeed << "\n";
    for (const CaseResult& r : failures)
        os << formatCorpusLine(r) << "\n";
    return os.str();
}

std::vector<CorpusEntry>
parseCorpus(const std::string& text, std::uint64_t* campaignSeed)
{
    std::vector<CorpusEntry> entries;
    std::istringstream is(text);
    std::string line;
    for (int number = 1; std::getline(is, line); ++number) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream hs(line);
            std::string hash, key;
            hs >> hash >> key;
            if (key == "seed" && campaignSeed) {
                std::uint64_t s = 0;
                if (hs >> s)
                    *campaignSeed = s;
            }
            continue;
        }
        CorpusEntry entry;
        std::string err;
        if (!parseCorpusLine(line, &entry, &err))
            throw std::runtime_error("corpus parse error: " + err +
                                     " in line " + std::to_string(number) +
                                     ": " + line);
        entries.push_back(entry);
    }
    return entries;
}

}  // namespace gecko::fault
