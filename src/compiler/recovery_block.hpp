#ifndef GECKO_COMPILER_RECOVERY_BLOCK_HPP_
#define GECKO_COMPILER_RECOVERY_BLOCK_HPP_

#include <optional>

#include "compiler/flow_analyses.hpp"
#include "compiler/pipeline.hpp"
#include "ir/program.hpp"

/**
 * @file
 * Recovery-block construction (paper §VI-E).
 *
 * A recovery block for a live-in register r of region Rg is a program
 * slice that recomputes r's region-entry value from registers that are
 * restored from checkpoint slots.  The builder backtracks data
 * dependences from the region boundary; the backtracking terminates at
 *   - a register whose value at its use site provably equals its value at
 *     the boundary and that is itself a live-in of the region (restored
 *     before the block runs), or
 *   - a constant (kMovi) / read-only load.
 * Unique dominating reaching definitions guarantee that the control flow
 * the slice depends on is unambiguous, which is our conservative subset
 * of the paper's control-dependence backtracking.
 */

namespace gecko::compiler {

/** Recovery-block builder over the analyses of a frozen snapshot. */
class RecoveryBuilder
{
  public:
    /**
     * Try to build the recovery block reconstructing `reg` at the region
     * whose kBoundary sits at `boundaryIdx`.
     *
     * @param liveIn   live-in mask of the region (potential terminals).
     * @param maxInstrs fail if the slice would exceed this many
     *                  instructions (the paper reports ~6 on average).
     * @return the block, or nullopt if the checkpoint must be kept.
     */
    static std::optional<RecoverySpec> build(const FlowAnalyses& ctx,
                                             std::size_t boundaryIdx,
                                             ir::Reg reg, RegMask liveIn,
                                             int maxInstrs = 16);
};

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_RECOVERY_BLOCK_HPP_
