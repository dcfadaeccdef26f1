#ifndef GECKO_COMPILER_CFG_HPP_
#define GECKO_COMPILER_CFG_HPP_

#include <cstddef>
#include <vector>

#include "ir/program.hpp"

/**
 * @file
 * Control-flow graph over a mini-ISA Program.
 */

namespace gecko::compiler {

/** Index of a basic block inside a Cfg. */
using BlockId = int;

/**
 * A basic block: a maximal straight-line range [first, last] of instruction
 * indices with control entering only at `first` and leaving only at `last`.
 */
struct BasicBlock {
    std::size_t first = 0;
    /// Inclusive index of the final instruction of the block.
    std::size_t last = 0;
    std::vector<BlockId> succs;
    std::vector<BlockId> preds;

    std::size_t length() const { return last - first + 1; }
};

/**
 * Control-flow graph.
 *
 * kCall blocks get two successors — the call target and the fall-through
 * block — modelling "the callee eventually returns here"; kRet blocks have
 * no successors.  This is a sound intra-procedural approximation for the
 * liveness and region analyses (the GECKO pipeline additionally forces
 * region boundaries around calls, see RegionFormation).
 */
class Cfg
{
  public:
    /** Build the CFG of `prog`. */
    static Cfg build(const ir::Program& prog);

    const std::vector<BasicBlock>& blocks() const { return blocks_; }
    const BasicBlock& block(BlockId id) const
    {
        return blocks_.at(static_cast<std::size_t>(id));
    }
    std::size_t numBlocks() const { return blocks_.size(); }

    /** @return the block containing instruction index `idx`. */
    BlockId blockOf(std::size_t idx) const
    {
        return instrBlock_.at(idx);
    }

    /** Entry block id (always 0 for non-empty programs). */
    BlockId entry() const { return 0; }

    /**
     * Blocks in reverse post-order from the entry (good iteration order for
     * forward dataflow problems).
     */
    const std::vector<BlockId>& reversePostOrder() const { return rpo_; }

    /** @return true if block `target` is a loop header (has a back edge). */
    bool isLoopHeader(BlockId target) const;

  private:
    std::vector<BasicBlock> blocks_;
    std::vector<BlockId> instrBlock_;
    std::vector<BlockId> rpo_;
    std::vector<bool> loopHeader_;
};

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_CFG_HPP_
