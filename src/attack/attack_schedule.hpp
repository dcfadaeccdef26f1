#ifndef GECKO_ATTACK_ATTACK_SCHEDULE_HPP_
#define GECKO_ATTACK_ATTACK_SCHEDULE_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

/**
 * @file
 * Time-windowed attack scenarios (paper Fig. 9 and Fig. 13).
 */

namespace gecko::attack {

/** One attack window. */
struct AttackWindow {
    double startS = 0.0;
    double endS = 0.0;
    double freqHz = 27e6;
    double powerDbm = 35.0;
};

/** A sequence of attack windows applied to an EmiSource over time. */
class AttackSchedule
{
  public:
    AttackSchedule() = default;
    explicit AttackSchedule(std::vector<AttackWindow> windows)
        : windows_(std::move(windows))
    {
        buildIndex();
    }

    /** The window active at time `t`, if any. */
    std::optional<AttackWindow> activeAt(double t) const;

    /**
     * True iff any window intersects the half-open span [t0, t1) — the
     * simulator's horizon query.  The sleeping-state analytic wake jump
     * and the running-state quantum-coalescing guard both ask this once
     * per horizon instead of scanning the window list per quantum;
     * answered in O(log n) from a start-sorted index with a running
     * max-end, so overlapping or out-of-order window sets stay exact.
     */
    bool overlapsRange(double t0, double t1) const;

    /**
     * The earliest window start strictly after `t` (infinity if none),
     * in O(log n) from the same index.  No window but the one active at
     * t can become active before it, so the simulator bounds a burst's
     * horizon by it and the active window's end.
     */
    double nextStartAfter(double t) const;

    /**
     * Fig. 13 scenarios (a)–(f).  The paper schedules attacks at minute
     * granularity over a 50-minute run; `minuteS` scales one paper-minute
     * to simulated seconds so the experiment stays tractable.
     *
     * @param scenario 'a' (none) .. 'f' (attacks at 10, 25 and 40 min)
     * @param minuteS  simulated seconds per paper-minute
     * @param attackMinutes duration of each attack burst in minutes
     * @param freqHz/powerDbm the tone used in every burst
     */
    static AttackSchedule scenario(char scenario, double minuteS,
                                   double attackMinutes = 5.0,
                                   double freqHz = 27e6,
                                   double powerDbm = 35.0);

    /** Human-readable description of scenario `s` ("attacks at 20, 40 min"). */
    static std::string scenarioDescription(char scenario);

    const std::vector<AttackWindow>& windows() const { return windows_; }

  private:
    void buildIndex();

    std::vector<AttackWindow> windows_;
    /// Window indices ordered by startS, and the running maximum of
    /// endS over that order (prefixMaxEndS_[i] = max endS among the
    /// first i+1 sorted windows).  Built once by the constructor:
    /// schedules are frozen before the simulation starts, while the
    /// overlap query runs on the per-horizon hot path.
    std::vector<std::uint32_t> byStart_;
    std::vector<double> prefixMaxEndS_;
};

}  // namespace gecko::attack

#endif  // GECKO_ATTACK_ATTACK_SCHEDULE_HPP_
