#include "attack/attack_schedule.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gecko::attack {

std::optional<AttackWindow>
AttackSchedule::activeAt(double t) const
{
    // Insertion-order scan on purpose: with overlapping windows the
    // first-added one wins, and callers (updateAttack) depend on that
    // tie-break.  The list is a handful of entries; the per-quantum
    // cost lives in overlapsRange, not here.
    for (const AttackWindow& w : windows_)
        if (t >= w.startS && t < w.endS)
            return w;
    return std::nullopt;
}

void
AttackSchedule::buildIndex()
{
    byStart_.resize(windows_.size());
    for (std::uint32_t i = 0; i < windows_.size(); ++i)
        byStart_[i] = i;
    std::stable_sort(byStart_.begin(), byStart_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return windows_[a].startS < windows_[b].startS;
                     });
    prefixMaxEndS_.resize(windows_.size());
    double maxEnd = -1e300;
    for (std::size_t i = 0; i < byStart_.size(); ++i) {
        maxEnd = std::max(maxEnd, windows_[byStart_[i]].endS);
        prefixMaxEndS_[i] = maxEnd;
    }
}

bool
AttackSchedule::overlapsRange(double t0, double t1) const
{
    // A window w overlaps [t0, t1) iff w.startS < t1 && w.endS > t0.
    // Candidates are exactly the sorted prefix with startS < t1; the
    // running max-end decides whether any of them reaches past t0.
    auto it = std::lower_bound(byStart_.begin(), byStart_.end(), t1,
                               [this](std::uint32_t idx, double t) {
                                   return windows_[idx].startS < t;
                               });
    const std::size_t k =
        static_cast<std::size_t>(it - byStart_.begin());
    return k > 0 && prefixMaxEndS_[k - 1] > t0;
}

double
AttackSchedule::nextStartAfter(double t) const
{
    auto it = std::upper_bound(byStart_.begin(), byStart_.end(), t,
                               [this](double x, std::uint32_t idx) {
                                   return x < windows_[idx].startS;
                               });
    return it == byStart_.end() ? std::numeric_limits<double>::infinity()
                                : windows_[*it].startS;
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
