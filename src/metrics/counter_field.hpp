#ifndef GECKO_METRICS_COUNTER_FIELD_HPP_
#define GECKO_METRICS_COUNTER_FIELD_HPP_

#include <cstddef>

namespace gecko::metrics {

/**
 * One entry of a stats struct's field list (DESIGN.md "Counters"):
 * `Stats::forEachField(fn)` calls `fn(CounterField, &Stats::member)`
 * once per member, in declaration order.
 */
struct CounterField {
    /// snake_case wire name, unique across the four stats structs.
    const char* name;
    /// Snapshots save and restore the field; false marks a diagnostic
    /// of how the simulator stepped.
    bool archived = true;
};

/** Every member is 8 bytes, so a list missing one falls short. */
template <class Stats>
constexpr bool
listsEveryField()
{
    std::size_t entries = 0;
    Stats::forEachField([&entries](const CounterField&, auto) { ++entries; });
    return sizeof(Stats) == 8 * entries;
}

}  // namespace gecko::metrics

#endif  // GECKO_METRICS_COUNTER_FIELD_HPP_
