#include "campaign/aggregate.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>

#include "metrics/json.hpp"

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
JobResult::fromJson(const metrics::JsonValue& v)
{
    const auto job = v.getU64("job");
    const auto group = v.getString("group");
    const auto slices = v.getU64("slices");
    if (!job || !group || !slices)
        return std::nullopt;
    JobResult r;
    r.job = *job;
    r.group = *group;
    r.slices = *slices;
    bool complete = true;  // every streamed counter present
    forEachStreamed([&](const char* name, auto get) {
        const auto n = v.getU64(name);
        complete = complete && n;
        get(r.counters) = n.value_or(0);
    });
    // Added after the first deployment: absent in old lines, which
    // read as 0 instead of as damaged records.
    const metrics::JsonValue* field = v.find("commits");
    const std::optional<std::uint64_t> commits =
        field ? field->asU64() : 0;
    if (!complete || !commits)
        return std::nullopt;
    r.commits = *commits;
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
    // config/seed quoted, as in the manifest header: the wire format
    // is frozen.
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
