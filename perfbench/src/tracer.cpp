#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

void
Digest::bytes(const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

int
Tracer::begin(const std::string& name, const std::string& tag)
{
    Span span;
    span.name = name;
    span.tag = tag;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = now();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("perfbench: spans closed out of order");
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
}

void
Tracer::tick(const std::string& name, const std::string& tag)
{
    end(begin(name, tag));
}

void
Tracer::add(const std::string& counter, double value)
{
    for (auto& [name, v] : counters_)
        if (name == counter) {
            v += value;
            return;
        }
    counters_.emplace_back(counter, value);
}

double
Tracer::counter(const std::string& name) const
{
    for (const auto& [n, v] : counters_)
        if (n == name)
            return v;
    return 0.0;
}

double
Tracer::total(const std::string& name) const
{
    double s = 0.0;
    for (const Span& span : spans_)
        if (span.name == name)
            s += span.duration();
    return s;
}

double
Tracer::self(const std::string& name) const
{
    std::vector<double> selfS(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        selfS[i] += spans_[i].duration();
    for (const Span& span : spans_)
        if (span.parent >= 0)
            selfS[static_cast<std::size_t>(span.parent)] -= span.duration();
    double s = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            s += selfS[i];
    return s;
}

std::vector<double>
Tracer::durations(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& span : spans_)
        if (span.name == name)
            out.push_back(span.duration());
    return out;
}

std::vector<double>
Tracer::starts(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& span : spans_)
        if (span.name == name)
            out.push_back(span.start);
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"tag\":\"" << s.tag << "\"";
        std::snprintf(buf, sizeof buf, ",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                      s.start, s.end);
        out << buf;
    }
    for (const auto& [name, v] : counters_) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out << "{\"counter\":\"" << name << "\",\"value\":" << buf << "}\n";
    }
    std::vector<std::string> names;
    for (const Span& s : spans_)
        if (std::find(names.begin(), names.end(), s.name) == names.end())
            names.push_back(s.name);
    for (const std::string& name : names) {
        std::snprintf(buf, sizeof buf,
                      "\",\"count\":%zu,\"total_s\":%.9f,\"self_s\":%.9f}\n",
                      durations(name).size(), total(name), self(name));
        out << "{\"summary\":\"" << name << buf;
    }
    out.flush();
    return static_cast<bool>(out);
}

template <class Fn>
auto
TracedHarvester::timed(Fn fn) const
{
    // Timing every call would cost more than the ~20 ns calls
    // themselves; one call in 16 is timed and scaled up.
    if ((calls_++ & 15u) != 0)
        return fn();
    const auto t0 = Clock::now();
    auto result = fn();
    sampledS_ += secondsSince(t0);
    ++sampled_;
    return result;
}

double
TracedHarvester::openCircuitVoltage(double t) const
{
    return timed([&] { return inner_.openCircuitVoltage(t); });
}

double
TracedHarvester::seriesResistance(double t) const
{
    return timed([&] { return inner_.seriesResistance(t); });
}

bool
TracedHarvester::steadyOver(double t, double dt) const
{
    return timed([&] { return inner_.steadyOver(t, dt); });
}

bool
TracedHarvester::constantOver(double t, double dt) const
{
    return timed([&] { return inner_.constantOver(t, dt); });
}

namespace {

/** Median host time of an empty timed region (two clock reads). */
double
clockPairSeconds()
{
    static const double pair = [] {
        std::vector<double> xs(2001);
        for (double& x : xs)
            x = secondsSince(Clock::now());
        std::sort(xs.begin(), xs.end());
        return xs[xs.size() / 2];
    }();
    return pair;
}

}  // namespace

double
TracedHarvester::seconds() const
{
    if (sampled_ == 0)
        return 0.0;
    // The clock reads cost about as much as a call; take them out.
    const double inside = std::max(
        0.0, sampledS_ - static_cast<double>(sampled_) * clockPairSeconds());
    return inside * static_cast<double>(calls_) /
           static_cast<double>(sampled_);
}

}  // namespace perfbench
