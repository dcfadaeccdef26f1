#include "campaign/manifest.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace gecko::campaign {

const char*
jobStateName(JobState s)
{
    switch (s) {
        case JobState::kPending: return "pending";
        case JobState::kRunning: return "running";
        case JobState::kDone: return "done";
        case JobState::kFailed: return "failed";
        case JobState::kQuarantined: return "quarantined";
    }
    return "unknown";
}

std::string
ManifestRecord::toJsonl() const
{
    std::ostringstream os;
    os << "{\"job\":" << job << ",\"state\":\"" << jobStateName(state)
       << "\",\"attempt\":" << attempt << ",\"slices\":" << slices;
    if (!note.empty())
        os << ",\"note\":\"" << metrics::jsonEscape(note) << "\"";
    os << "}";
    return os.str();
}

ManifestWriter::ManifestWriter(const std::string& path,
                               std::size_t syncEvery)
    : out_(path, /*append=*/true, syncEvery)
{
}

bool
ManifestWriter::header(std::uint64_t totalJobs, std::uint64_t configHash,
                       std::uint64_t seed)
{
    std::ostringstream os;
    // config/seed are full u64s, quoted since the first journal: the
    // wire format is frozen, and readers parse the digits exactly.
    os << "{\"manifest\":\"gecko-campaign\",\"version\":1,\"jobs\":"
       << totalJobs << ",\"config\":\"" << configHash << "\",\"seed\":\""
       << seed << "\"}";
    // The header is the journal's identity: land it durably before any
    // job record can reference it.
    return out_.append(os.str()) && out_.sync();
}

bool
ManifestWriter::append(const ManifestRecord& rec)
{
    return out_.append(rec.toJsonl());
}

namespace {

bool
parseState(const std::string& name, JobState* out)
{
    for (JobState s : {JobState::kPending, JobState::kRunning,
                       JobState::kDone, JobState::kFailed,
                       JobState::kQuarantined}) {
        if (name == jobStateName(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

/** Fold one parsed journal line into `rec`; false = a damaged line. */
bool
replayLine(const metrics::JsonValue& v, ManifestRecovery* rec)
{
    if (v.find("manifest")) {
        const auto jobs = v.getU64("jobs");
        const auto config = v.getString("config");
        const auto seedText = v.getString("seed");
        std::uint64_t hash = 0, seed = 0;
        if (!jobs || !config || !seedText ||
            !metrics::parseU64(*config, &hash) ||
            !metrics::parseU64(*seedText, &seed))
            return false;
        rec->hasHeader = true;
        rec->totalJobs = *jobs;
        rec->configHash = hash;
        rec->seed = seed;
        return true;
    }
    ManifestRecord r;
    const auto job = v.getU64("job");
    const auto state = v.getString("state");
    const auto attempt = v.getU64("attempt");
    const auto slices = v.getU64("slices");
    if (!job || !state || !parseState(*state, &r.state) || !attempt ||
        *attempt > UINT32_MAX || !slices)
        return false;
    r.job = *job;
    r.attempt = static_cast<std::uint32_t>(*attempt);
    r.slices = *slices;
    rec->latest[r.job] = r;
    rec->maxJob = std::max(rec->maxJob, r.job);
    rec->sawAnyJob = true;
    return true;
}

}  // namespace

ManifestRecovery
readManifest(const std::string& path)
{
    ManifestRecovery rec;
    rec.tornLines = metrics::readJsonl(
        path, [&rec](const metrics::JsonValue& v) {
            return replayLine(v, &rec);
        });
    return rec;
}

}  // namespace gecko::campaign
