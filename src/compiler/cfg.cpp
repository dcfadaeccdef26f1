#include "compiler/cfg.hpp"

#include <algorithm>
#include <functional>
#include <set>

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;

Cfg
Cfg::build(const Program& prog)
{
    Cfg cfg;
    if (prog.empty())
        return cfg;

    const std::size_t n = prog.size();

    // 1. Find leaders.
    std::set<std::size_t> leaders;
    leaders.insert(0);
    for (std::size_t i = 0; i < n; ++i) {
        const Instr& ins = prog.at(i);
        if (ir::isCondBranch(ins.op) || ins.op == Opcode::kJmp ||
            ins.op == Opcode::kCall) {
            leaders.insert(prog.labelPos(ins.target));
        }
        if (ir::isTerminator(ins.op) && i + 1 < n)
            leaders.insert(i + 1);
    }

    // 2. Carve blocks.
    std::vector<std::size_t> leader_list(leaders.begin(), leaders.end());
    cfg.instrBlock_.assign(n, -1);
    for (std::size_t b = 0; b < leader_list.size(); ++b) {
        BasicBlock block;
        block.first = leader_list[b];
        block.last = (b + 1 < leader_list.size() ? leader_list[b + 1] - 1
                                                 : n - 1);
        for (std::size_t i = block.first; i <= block.last; ++i)
            cfg.instrBlock_[i] = static_cast<BlockId>(b);
        cfg.blocks_.push_back(block);
    }

    // 3. Edges.
    auto add_edge = [&cfg](BlockId from, BlockId to) {
        cfg.blocks_[static_cast<std::size_t>(from)].succs.push_back(to);
        cfg.blocks_[static_cast<std::size_t>(to)].preds.push_back(from);
    };
    for (std::size_t b = 0; b < cfg.blocks_.size(); ++b) {
        const BasicBlock& block = cfg.blocks_[b];
        const Instr& term = prog.at(block.last);
        BlockId id = static_cast<BlockId>(b);
        switch (term.op) {
          case Opcode::kJmp:
            add_edge(id, cfg.instrBlock_[prog.labelPos(term.target)]);
            break;
          case Opcode::kCall:
            add_edge(id, cfg.instrBlock_[prog.labelPos(term.target)]);
            if (block.last + 1 < n)
                add_edge(id, cfg.instrBlock_[block.last + 1]);
            break;
          case Opcode::kHalt:
          case Opcode::kRet:
            break;
          default:
            if (ir::isCondBranch(term.op)) {
                add_edge(id, cfg.instrBlock_[prog.labelPos(term.target)]);
                if (block.last + 1 < n)
                    add_edge(id, cfg.instrBlock_[block.last + 1]);
            } else if (block.last + 1 < n) {
                // Fall-through (block ended because next instr is a leader).
                add_edge(id, cfg.instrBlock_[block.last + 1]);
            }
            break;
        }
    }

    // Deduplicate edges (a conditional branch to the fall-through point
    // would otherwise produce a double edge).
    for (auto& block : cfg.blocks_) {
        auto dedup = [](std::vector<BlockId>& v) {
            std::vector<BlockId> seen;
            for (BlockId id : v)
                if (std::find(seen.begin(), seen.end(), id) == seen.end())
                    seen.push_back(id);
            v = std::move(seen);
        };
        dedup(block.succs);
        dedup(block.preds);
    }

    // 4. Reverse post-order + back-edge (loop header) detection.
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
