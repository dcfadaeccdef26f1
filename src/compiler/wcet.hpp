#ifndef GECKO_COMPILER_WCET_HPP_
#define GECKO_COMPILER_WCET_HPP_

#include <cstddef>
#include <utility>
#include <vector>

#include "ir/program.hpp"

/**
 * @file
 * Loop-aware worst-case execution time analysis per idempotent region
 * (paper §VI-B steps 3 and 4, following the loop-bound-aware WCET of
 * [12]).
 *
 * Regions may span whole *counted* loops: a boundary-free loop with a
 * static trip bound contributes bound × iteration-cost to the longest
 * path.  Loops that contain a boundary — or whose trip count cannot be
 * bounded — must start with a header boundary (enforceLoopInvariant
 * inserts it), so every cyclic path crosses a boundary and the longest
 * path of each region is finite.  Regions whose WCET exceeds the
 * power-on budget are split: first by demoting an embedded counted loop
 * to per-iteration regions (header boundary), then by straight-line
 * splitting.
 */

namespace gecko::compiler {

/** WCET analysis and enforcement. */
class Wcet
{
  public:
    /**
     * Worst-case cycles of every region, as pairs of
     * (boundary instruction index, cycles from the boundary up to — but
     * excluding — the next boundary on any path).
     *
     * Requires the loop invariant (see enforceLoopInvariant).
     * @throws std::runtime_error on boundary-free unbounded cycles.
     */
    static std::vector<std::pair<std::size_t, long>>
    analyze(const ir::Program& prog);

    /**
     * Worst-case cycles starting at instruction `idx` until the next
     * boundary (0 if `idx` is itself a boundary).
     */
    static long wcetFrom(const ir::Program& prog, std::size_t idx);

    /**
     * Insert header boundaries for loops that need them: loops with no
     * derivable trip bound, and loops already containing an internal
     * boundary (whose cyclic paths must all cross one).
     * @return the number of boundaries inserted.
     */
    static int enforceLoopInvariant(ir::Program& prog);

    /**
     * Split regions until every region's WCET is at most `bound` cycles,
     * keeping the loop invariant: each round inserts the loop headers it
     * lacks before it splits anything.
     * @return the number of boundaries inserted, headers included.
     * @throws std::runtime_error if the bound cannot be met.
     */
    static int enforce(ir::Program& prog, long bound);
};

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_WCET_HPP_
