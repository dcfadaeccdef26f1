#ifndef GECKO_COMPILER_DATAFLOW_HPP_
#define GECKO_COMPILER_DATAFLOW_HPP_

#include <cstddef>
#include <utility>
#include <vector>

#include "compiler/cfg.hpp"

/**
 * @file
 * The block-level fixpoint solver every flow analysis of the compiler
 * runs on.
 *
 * An analysis supplies a state type, an instruction-level step
 * `void(State&, std::size_t idx)` and an in-place join
 * `bool(State& into, const State& from)` that reports whether `into`
 * changed.  The solver runs one of two round-robin schedules until a
 * round changes no block's in-state:
 *
 *  - forward: blocks in reverse post-order (RPO); each block's
 *    out-state is joined in place into its successors' in-states;
 *  - backward: blocks in reverse RPO; each block's out-state is pulled
 *    by joining its successors' in-states into `State{}`.
 *
 * Every block starts at `State{}` (forward: the entry block at the
 * given entry state), and only blocks reachable from the entry are
 * visited.  The WAR scan's step is not monotone (it clears its state at
 * each cut it models), so its fixpoint depends on this exact schedule:
 * neither a worklist nor pull-style forward joins may replace it.
 *
 * After solving, replay() re-runs the step over one block from the
 * block's solved state; that replay fills the per-instruction tables.
 */

namespace gecko::compiler {

/** A solved dataflow problem: one state per block, plus its step. */
template <typename State, typename Step>
struct Dataflow {
    const Cfg& cfg;
    Step step;
    bool forward;
    /// Forward: each block's in-state; backward: each block's out-state.
    std::vector<State> solved;

    /**
     * Replay the step over block `b` from its solved state, in the
     * schedule's direction, calling `visit(idx, state)` just before
     * each instruction is stepped (forward: the state before the
     * instruction executes; backward: the state after it).
     * @return the state past the block's last step.
     */
    template <typename Visit>
    State
    replay(BlockId b, Visit&& visit) const
    {
        const BasicBlock& block = cfg.block(b);
        State s = solved[static_cast<std::size_t>(b)];
        for (std::size_t k = 0; k < block.length(); ++k) {
            std::size_t i = forward ? block.first + k : block.last - k;
            visit(i, std::as_const(s));
            step(s, i);
        }
        return s;
    }

    /** replay() every block, reachable or not. */
    template <typename Visit>
    void
    replayEvery(Visit&& visit) const
    {
        for (std::size_t b = 0; b < cfg.numBlocks(); ++b)
            replay(static_cast<BlockId>(b), visit);
    }

    /** replay() the blocks the schedule visits, in its order. */
    template <typename Visit>
    void
    replayReached(Visit&& visit) const
    {
        for (BlockId b : cfg.reversePostOrder())
            replay(b, visit);
    }
};

/** Solve a forward problem whose entry block starts at `entry`. */
template <typename State, typename Step, typename Join>
Dataflow<State, Step>
solveForward(const Cfg& cfg, State entry, Step step, Join join)
{
    Dataflow<State, Step> flow{cfg, std::move(step), true,
                               std::vector<State>(cfg.numBlocks())};
    std::vector<State>& in = flow.solved;
    if (in.empty())
        return flow;
    in[static_cast<std::size_t>(cfg.entry())] = std::move(entry);
    for (bool changed = true; changed;) {
        changed = false;
        for (BlockId b : cfg.reversePostOrder()) {
            const BasicBlock& block = cfg.block(b);
            State out = in[static_cast<std::size_t>(b)];
            for (std::size_t i = block.first; i <= block.last; ++i)
                flow.step(out, i);
            for (BlockId succ : block.succs)
                changed |= join(in[static_cast<std::size_t>(succ)], out);
        }
    }
    return flow;
}

/** Solve a backward problem (name `State` explicitly). */
template <typename State, typename Step, typename Join>
Dataflow<State, Step>
solveBackward(const Cfg& cfg, Step step, Join join)
{
    Dataflow<State, Step> flow{cfg, std::move(step), false,
                               std::vector<State>(cfg.numBlocks())};
    std::vector<State> in(cfg.numBlocks());
    const std::vector<BlockId>& rpo = cfg.reversePostOrder();
    for (bool changed = true; changed;) {
        changed = false;
        for (auto it = rpo.rbegin(); it != rpo.rend(); ++it) {
            const BasicBlock& block = cfg.block(*it);
            State s{};
            for (BlockId succ : block.succs)
                join(s, in[static_cast<std::size_t>(succ)]);
            flow.solved[static_cast<std::size_t>(*it)] = s;
            for (std::size_t i = block.last + 1; i-- > block.first;)
                flow.step(s, i);
            if (!(s == in[static_cast<std::size_t>(*it)])) {
                in[static_cast<std::size_t>(*it)] = std::move(s);
                changed = true;
            }
        }
    }
    return flow;
}

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_DATAFLOW_HPP_
