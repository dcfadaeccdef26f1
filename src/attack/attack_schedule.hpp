#ifndef GECKO_ATTACK_ATTACK_SCHEDULE_HPP_
#define GECKO_ATTACK_ATTACK_SCHEDULE_HPP_

#include <limits>
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

/**
 * A sequence of attack windows applied to an EmiSource over time.
 *
 * The constructor folds the listed windows into a timeline of disjoint
 * windows in time order: each instant belongs to the first-listed
 * window that covers it.  Schedules are frozen before the simulation
 * starts, and the simulator asks one question per quantum, toneAt.
 */
class AttackSchedule
{
  public:
    /** What the schedule plays at one instant, and until when. */
    struct Tone {
        /// The window on (nullptr = none).
        const AttackWindow* window = nullptr;
        /// The tone holds until then: the window's end, or the next
        /// window's start (infinity if none follows).
        double until = std::numeric_limits<double>::infinity();
    };

    AttackSchedule() = default;
    /** @throws std::invalid_argument on a window without startS < endS. */
    explicit AttackSchedule(const std::vector<AttackWindow>& windows);

    /** The tone at time `t`, in O(log n) over the timeline. */
    Tone toneAt(double t) const;

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

    /** The timeline: disjoint windows in time order. */
    const std::vector<AttackWindow>& windows() const { return timeline_; }

  private:
    std::vector<AttackWindow> timeline_;
};

}  // namespace gecko::attack

#endif  // GECKO_ATTACK_ATTACK_SCHEDULE_HPP_
