#include "compiler/cfg.hpp"

#include <algorithm>
#include <functional>

namespace gecko::compiler {

using ir::Program;

Cfg
Cfg::build(const Program& prog)
{
    Cfg cfg;
    if (prog.empty())
        return cfg;

    const std::size_t n = prog.size();

    // 1. Leaders, and the blocks they start.
    std::vector<bool> leader(n, false);
    leader[0] = true;
    prog.forEachLeader([&leader](std::size_t i) { leader[i] = true; });
    cfg.instrBlock_.assign(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        if (leader[i]) {
            cfg.blocks_.emplace_back();
            cfg.blocks_.back().first = i;
        }
        cfg.blocks_.back().last = i;
        cfg.instrBlock_[i] = static_cast<BlockId>(cfg.blocks_.size() - 1);
    }

    // 2. Edges: the successors of each block's last instruction (a
    // conditional branch to its own fall-through is one edge).
    for (std::size_t b = 0; b < cfg.blocks_.size(); ++b) {
        std::vector<BlockId>& succs = cfg.blocks_[b].succs;
        for (std::size_t s : prog.successors(cfg.blocks_[b].last)) {
            BlockId to = cfg.instrBlock_[s];
            if (std::find(succs.begin(), succs.end(), to) != succs.end())
                continue;
            succs.push_back(to);
            cfg.blocks_[static_cast<std::size_t>(to)].preds.push_back(
                static_cast<BlockId>(b));
        }
    }

    // 3. Reverse post-order + back-edge (loop header) detection.
    std::vector<int> state(cfg.blocks_.size(), 0);  // 0=new 1=open 2=done
    cfg.loopHeader_.assign(cfg.blocks_.size(), false);
    std::vector<BlockId> postorder;
    std::function<void(BlockId)> dfs = [&](BlockId id) {
        state[static_cast<std::size_t>(id)] = 1;
        for (BlockId succ : cfg.blocks_[static_cast<std::size_t>(id)].succs) {
            int s = state[static_cast<std::size_t>(succ)];
            if (s == 0)
                dfs(succ);
            else if (s == 1)
                cfg.loopHeader_[static_cast<std::size_t>(succ)] = true;
        }
        state[static_cast<std::size_t>(id)] = 2;
        postorder.push_back(id);
    };
    dfs(cfg.entry());
    cfg.rpo_.assign(postorder.rbegin(), postorder.rend());

    return cfg;
}

bool
Cfg::isLoopHeader(BlockId target) const
{
    return loopHeader_.at(static_cast<std::size_t>(target));
}

}  // namespace gecko::compiler
