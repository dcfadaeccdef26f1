#include "campaign/aggregate.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>

#include "metrics/bench_json.hpp"

namespace gecko::campaign {

namespace {

// The counters results.jsonl streams between `slices` and `commits`,
// by field-list name.  Explicit: the campaign wire format is frozen, so
// a new registry field joins it only when listed here.
constexpr std::string_view kStreamed[] = {
    "instrs", "cycles", "completions", "reboots", "hard_deaths",
    "backup_signals", "ckpt_attempts", "ckpt_complete", "ckpt_torn",
    "missed_ckpts", "rollbacks", "corrupted_restores", "crc_rejects",
    "retries_exhausted", "escalations", "de_escalations"};

/** `fn(name, get)` per streamed counter, in field-list order. */
template <class Fn>
void
forEachStreamed(Fn&& fn)
{
    sim::Counters::forEachField(
        [&fn](const metrics::CounterField& field, auto get) {
            if (std::find(std::begin(kStreamed), std::end(kStreamed),
                          field.name) != std::end(kStreamed))
                fn(field.name, get);
        });
}

}  // namespace

std::string
JobResult::toJsonl() const
{
    std::ostringstream os;
    os << "{\"job\":" << job << ",\"group\":\""
       << metrics::jsonEscape(group) << "\",\"slices\":" << slices;
    forEachStreamed([&](const char* name, auto get) {
        os << ",\"" << name << "\":" << get(counters);
    });
    os << ",\"commits\":" << commits << "}";
    return os.str();
}

std::optional<JobResult>
JobResult::fromJsonl(const std::string& line)
{
    auto job = metrics::jsonNumber(line, "job");
    auto group = metrics::jsonString(line, "group");
    auto slices = metrics::jsonNumber(line, "slices");
    if (!job || !group || !slices)
        return std::nullopt;
    JobResult r;
    r.job = static_cast<std::uint64_t>(*job);
    r.group = *group;
    r.slices = static_cast<std::uint64_t>(*slices);
    bool torn = false;  // a counter missing mid-record
    forEachStreamed([&](const char* name, auto get) {
        auto v = metrics::jsonNumber(line, name);
        torn = torn || !v;
        get(r.counters) = static_cast<std::uint64_t>(v.value_or(0.0));
    });
    if (torn)
        return std::nullopt;
    // Added after the first deployment: absent in old lines, which
    // parse as 0 instead of reading as torn records.
    r.commits = static_cast<std::uint64_t>(
        metrics::jsonNumber(line, "commits").value_or(0.0));
    return r;
}

Aggregator::Aggregator(std::uint64_t totalJobs)
    : seen_(static_cast<std::size_t>(totalJobs), false)
{
}

bool
Aggregator::add(const JobResult& r)
{
    if (r.job < seen_.size()) {
        if (seen_[r.job])
            return false;
        seen_[r.job] = true;
    }
    ++jobCount_;
    GroupTotals& g = groups_[r.group];
    ++g.jobs;
    g.slices += r.slices;
    forEachStreamed(
        [&](const char*, auto get) { get(g.counters) += get(r.counters); });
    g.commits += r.commits;
    return true;
}

std::string
Aggregator::toJson(std::uint64_t totalJobs, std::uint64_t configHash,
                   std::uint64_t seed) const
{
    std::ostringstream os;
    // config/seed quoted: full-u64 values survive the double-based
    // jsonNumber extractor (see manifest header rationale).
    // v5: per-group `commits` (committed-region progress counter).
    os << "{\"schema_version\":" << 5
       << ",\"figure\":\"campaign\",\"jobs_total\":" << totalJobs
       << ",\"jobs_done\":" << jobCount_ << ",\"config\":\"" << configHash
       << "\",\"seed\":\"" << seed << "\",\"groups\":[";
    bool first = true;
    for (const auto& [key, g] : groups_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"group\":\"" << metrics::jsonEscape(key)
           << "\",\"jobs\":" << g.jobs << ",\"slices\":" << g.slices;
        forEachStreamed([&](const char* name, auto get) {
            os << ",\"" << name << "\":" << get(g.counters);
        });
        os << ",\"commits\":" << g.commits << "}";
    }
    os << "]}";
    return os.str();
}

}  // namespace gecko::campaign
