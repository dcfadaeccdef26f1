#include "fault/corpus.hpp"

#include <sstream>
#include <stdexcept>

namespace gecko::fault {

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
            entry.spec.seed = std::stoull(value);
        } else if (key == "injectAt") {
            entry.spec.injectAtOverride = std::stoll(value);
        } else if (key == "word") {
            entry.spec.wordOverride =
                static_cast<std::int32_t>(std::stol(value));
        } else if (key == "outcome") {
            if (!outcomeFromName(value, &entry.outcome)) {
                *err = "unknown outcome: " + value;
                return false;
            }
        } else {
            *err = "unknown key: " + key;
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
    while (std::getline(is, line)) {
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
                                     " in line: " + line);
        entries.push_back(entry);
    }
    return entries;
}

}  // namespace gecko::fault
