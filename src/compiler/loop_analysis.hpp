#ifndef GECKO_COMPILER_LOOP_ANALYSIS_HPP_
#define GECKO_COMPILER_LOOP_ANALYSIS_HPP_

#include <optional>
#include <set>
#include <vector>

#include "compiler/flow_analyses.hpp"
#include "ir/program.hpp"

/**
 * @file
 * Natural-loop detection and trip-count bounding.
 *
 * The WCET pass (paper §VI-B, building on the loop-bound-aware analysis
 * of [12]) needs an upper bound on every boundary-free cycle.  Counted
 * loops — a single in-loop update `i += step` / `i -= step` with a
 * constant initial value and a constant latch bound — get a static trip
 * bound; anything else is "unbounded" and region formation must place a
 * boundary in its header.
 */

namespace gecko::compiler {

/** One natural loop (reducible back edge). */
struct NaturalLoop {
    BlockId header = 0;
    /// All blocks of the loop body (including the header).
    std::set<BlockId> blocks;
    /// Blocks with a back edge to the header.
    std::vector<BlockId> latches;
    /**
     * Static upper bound on iterations, if the loop matches the counted
     * pattern.  nullopt = unbounded.
     */
    std::optional<long> tripBound;

    // Counted-loop pattern details (valid when tripBound is set and
    // counterReg >= 0): the counter register, its smallest initial
    // value, and the signed per-iteration step.
    int counterReg = -1;
    long counterInit = 0;
    long counterStep = 0;

    bool contains(BlockId b) const { return blocks.count(b) != 0; }

    /**
     * Inclusive value range the counter stays within while execution is
     * inside the loop (one extra step of slack for the exit increment).
     */
    std::pair<long, long> counterRange() const
    {
        long last = counterInit + counterStep * (*tripBound);
        return {std::min(counterInit, last), std::max(counterInit, last)};
    }
};

/** Loop detection + trip bounding over one program snapshot. */
class LoopAnalysis
{
  public:
    /**
     * Find all natural loops of `flow.prog` (loops sharing a header are
     * merged) and compute trip bounds where the counted pattern matches.
     */
    static std::vector<NaturalLoop> analyze(const FlowAnalyses& flow);

    /** @return true if any instruction of `loop` is a kBoundary. */
    static bool hasInternalBoundary(const ir::Program& prog, const Cfg& cfg,
                                    const NaturalLoop& loop);

    /// Trip bounds beyond this are treated as unbounded.
    static constexpr long kMaxTripBound = 1 << 20;
};

/**
 * Value-range analysis for memory addresses.
 *
 * Resolves the inclusive range an address expression can take by
 * combining constant propagation with counted-loop counter ranges
 * (base + i patterns).  Lets the region-formation pass prove that
 * accesses to different arrays never collide even when the index is a
 * loop variable.
 */
class RangeAnalysis
{
  public:
    RangeAnalysis(const ir::Program& prog, const Cfg& cfg,
                  const Dominators& dom, const ReachingDefs& rdefs,
                  const AliasAnalysis& aa,
                  const std::vector<NaturalLoop>& loops)
        : prog_(prog), cfg_(cfg), dom_(dom), rdefs_(rdefs), aa_(aa),
          loops_(loops)
    {
    }

    /**
     * Inclusive range of the address of the kLoad/kStore at `idx`
     * (base register value + immediate), if derivable.
     */
    std::optional<std::pair<long, long>>
    addrRange(std::size_t idx) const;

    /** Inclusive range of register `r`'s value just before `point`. */
    std::optional<std::pair<long, long>>
    valueRange(ir::Reg r, std::size_t point, int depth = 0) const;

  private:
    const ir::Program& prog_;
    const Cfg& cfg_;
    const Dominators& dom_;
    const ReachingDefs& rdefs_;
    const AliasAnalysis& aa_;
    const std::vector<NaturalLoop>& loops_;
};

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_LOOP_ANALYSIS_HPP_
