#include "trace/export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/json.hpp"

namespace gecko::trace {

namespace {

/** Shortest round-trippable decimal for trace timestamps. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string
toJsonl(const Collector& collector)
{
    std::ostringstream os;
    os << "{\"schema\":\"gecko-trace\",\"version\":1,\"buffers\":[";
    bool first = true;
    for (const auto& info : collector.bufferInfos()) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"label\":\"" << metrics::jsonEscape(info.label)
           << "\",\"index\":" << info.index << ",\"events\":" << info.events
           << ",\"dropped\":" << info.dropped << '}';
    }
    os << "]}\n";
    for (const MergedEvent& m : collector.merged()) {
        const auto kind = static_cast<EventKind>(m.event.kind);
        os << "{\"t\":" << num(m.event.t) << ",\"buf\":" << m.buf
           << ",\"seq\":" << m.event.seq << ",\"ev\":\"" << eventName(kind)
           << "\",\"id\":" << m.event.kind;
        if (m.event.flags != 0)
            os << ",\"flags\":" << m.event.flags;
        os << ",\"a\":" << m.event.a << ",\"b\":" << m.event.b << "}\n";
    }
    return os.str();
}

std::string
toChromeTrace(const Collector& collector)
{
    // Duration-style kinds rendered as B/E pairs on their track.
    const auto beginOf = [](EventKind k) {
        return k == EventKind::kEmiOn || k == EventKind::kOutageStart;
    };
    const auto endOf = [](EventKind k) {
        return k == EventKind::kEmiOff || k == EventKind::kOutageEnd;
    };
    const auto durationName = [](EventKind k) {
        return (k == EventKind::kEmiOn || k == EventKind::kEmiOff)
                   ? "emi_window"
                   : "outage";
    };

    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto infos = collector.bufferInfos();
    for (std::size_t i = 0; i < infos.size(); ++i) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << i
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << metrics::jsonEscape(infos[i].label) << " #" << infos[i].index << "\"}}";
    }
    for (const MergedEvent& m : collector.merged()) {
        const auto kind = static_cast<EventKind>(m.event.kind);
        os << ',';
        os << "{\"ph\":\"";
        if (beginOf(kind))
            os << 'B';
        else if (endOf(kind))
            os << 'E';
        else
            os << "i\",\"s\":\"t";
        os << "\",\"pid\":1,\"tid\":" << m.buf << ",\"ts\":"
           << num(m.event.t * 1e6) << ",\"name\":\""
           << ((beginOf(kind) || endOf(kind)) ? durationName(kind)
                                              : eventName(kind))
           << "\",\"args\":{\"flags\":" << m.event.flags
           << ",\"a\":" << m.event.a << ",\"b\":" << m.event.b << "}}";
    }
    os << "],\"displayTimeUnit\":\"ns\"}\n";
    return os.str();
}

bool
writeTraceFile(const Collector& collector, const std::string& path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << (endsWith(path, ".json") ? toChromeTrace(collector)
                                    : toJsonl(collector));
    return static_cast<bool>(out);
}

}  // namespace gecko::trace
