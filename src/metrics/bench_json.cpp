#include "metrics/bench_json.hpp"

#include <cstdio>
#include <sstream>

namespace gecko::metrics {

namespace {

/** Format a double compactly ("0.123456"), locale-independent. */
std::string
num(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", x);
    return buf;
}

}  // namespace

std::string
BenchReport::toJson() const
{
    std::ostringstream os;
    os << "{\"schema_version\":" << kBenchSchemaVersion
       << ",\"figure\":\"" << jsonEscape(figure) << "\""
       << ",\"threads\":" << threads << ",\"host_cores\":" << hostCores
       << ",\"seed\":" << seed
       << ",\"defense_mode\":\"" << jsonEscape(defenseMode) << "\""
       << ",\"exec_backend\":\"" << jsonEscape(execBackend) << "\""
       << ",\"wall_s\":" << num(wallS);
    const std::uint64_t simCycles = counters.exec.cycles;
    const std::uint64_t quanta = counters.sim.quanta;
    const runtime::RuntimeStats& rt = counters.runtime;
    os << ",\"sim_cycles\":" << simCycles << ",\"sim_cycles_per_s\":"
       << num(wallS > 0 ? static_cast<double>(simCycles) / wallS : 0.0)
       << ",\"quanta\":" << quanta
       << ",\"coalesced_quanta\":" << counters.sim.coalescedQuanta
       << ",\"replayed_completions\":"
       << counters.sim.replayedCompletions
       << ",\"steady_loop_iterations\":"
       << counters.sim.steadyLoopIterations
       << ",\"point_reads\":" << counters.sim.pointReads
       << ",\"exact_reads\":" << counters.sim.exactReads
       << ",\"quanta_per_s\":"
       << num(wallS > 0 ? static_cast<double>(quanta) / wallS : 0.0);
    if (!status.empty())
        os << ",\"status\":\"" << jsonEscape(status) << "\"";
    os << ",\"corrupted_restores\":" << rt.corruptedRestores
       << ",\"crc_rejects\":" << rt.crcRejects
       << ",\"retries_exhausted\":" << rt.retriesExhausted;
    if (!traceOut.empty())
        os << ",\"trace_out\":\"" << jsonEscape(traceOut) << "\"";
    if (!figureData.empty())
        os << ",\"figure_data\":" << figureData;
    os << ",\"sweeps\":[";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepRecord& s = sweeps[i];
        if (i)
            os << ",";
        os << "{\"label\":\"" << jsonEscape(s.label) << "\""
           << ",\"tasks\":" << s.tasks << ",\"threads\":" << s.threads
           << ",\"wall_s\":" << num(s.wallS)
           << ",\"task_s\":" << num(s.taskS) << "}";
    }
    os << "]}";
    return os.str();
}

}  // namespace gecko::metrics
