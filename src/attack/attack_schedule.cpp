#include "attack/attack_schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>

namespace gecko::attack {

AttackSchedule::AttackSchedule(const std::vector<AttackWindow>& windows)
{
    // One sweep over the window edges in time order.  After the edges
    // at one instant, the open window listed first owns the time up to
    // the next edge; a change of owner closes one timeline window and
    // opens the next.
    struct Edge {
        double t;
        std::uint32_t window;
        bool opens;
    };
    std::vector<Edge> edges;
    edges.reserve(2 * windows.size());
    for (std::uint32_t i = 0; i < windows.size(); ++i) {
        const AttackWindow& w = windows[i];
        if (!(w.startS < w.endS))
            throw std::invalid_argument(
                "attack window needs startS < endS");
        edges.push_back({w.startS, i, true});
        edges.push_back({w.endS, i, false});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.t < b.t; });
    std::set<std::uint32_t> open;
    const AttackWindow* owner = nullptr;
    for (std::size_t e = 0; e < edges.size();) {
        const double t = edges[e].t;
        for (; e < edges.size() && edges[e].t == t; ++e) {
            if (edges[e].opens)
                open.insert(edges[e].window);
            else
                open.erase(edges[e].window);
        }
        const AttackWindow* next =
            open.empty() ? nullptr : &windows[*open.begin()];
        if (next == owner)
            continue;
        if (owner)
            timeline_.back().endS = t;
        if (next) {
            timeline_.push_back(*next);
            timeline_.back().startS = t;
        }
        owner = next;
    }
}

AttackSchedule::Tone
AttackSchedule::toneAt(double t) const
{
    // The first window starting after t; only the one before it can
    // cover t.
    auto next = std::upper_bound(
        timeline_.begin(), timeline_.end(), t,
        [](double x, const AttackWindow& w) { return x < w.startS; });
    if (next != timeline_.begin() && t < std::prev(next)->endS)
        return {&*std::prev(next), std::prev(next)->endS};
    Tone tone;
    if (next != timeline_.end())
        tone.until = next->startS;
    return tone;
}

namespace {

const std::vector<double>&
scenarioMinutes(char scenario)
{
    static const std::vector<double> a{};
    static const std::vector<double> b{40};
    static const std::vector<double> c{30};
    static const std::vector<double> d{20, 40};
    static const std::vector<double> e{15, 30, 35};
    static const std::vector<double> f{10, 25, 40};
    switch (scenario) {
      case 'a': return a;
      case 'b': return b;
      case 'c': return c;
      case 'd': return d;
      case 'e': return e;
      case 'f': return f;
      default:
        throw std::invalid_argument("unknown attack scenario");
    }
}

}  // namespace

AttackSchedule
AttackSchedule::scenario(char scenario, double minuteS,
                         double attackMinutes, double freqHz,
                         double powerDbm)
{
    std::vector<AttackWindow> windows;
    for (double m : scenarioMinutes(scenario)) {
        AttackWindow w;
        w.startS = m * minuteS;
        w.endS = (m + attackMinutes) * minuteS;
        w.freqHz = freqHz;
        w.powerDbm = powerDbm;
        windows.push_back(w);
    }
    return AttackSchedule(std::move(windows));
}

std::string
AttackSchedule::scenarioDescription(char scenario)
{
    const auto& minutes = scenarioMinutes(scenario);
    if (minutes.empty())
        return "no attack";
    std::string out = "attacks at ";
    for (std::size_t i = 0; i < minutes.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(static_cast<int>(minutes[i]));
    }
    out += " min";
    return out;
}

}  // namespace gecko::attack
