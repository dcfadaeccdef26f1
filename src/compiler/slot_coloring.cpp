#include "compiler/slot_coloring.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <stdexcept>

#include "compiler/dataflow.hpp"

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;
using ir::Reg;

namespace {

/** Sentinel "no checkpoint yet" in reaching sets. */
constexpr long kNoCkpt = -1;

/** Reaching kept checkpoints of one register: idx / kNoCkpt -> dirty. */
using PerReg = std::map<long, bool>;
using CkptState = std::array<PerReg, ir::kNumRegs>;

/**
 * Reaching-checkpoint dataflow.  Calls `fn(idx, ins, reaching)` for
 * every kCkpt instruction not in `removed`, with the set of most-recent
 * kept checkpoints of the same register that can reach it, each tagged
 * with whether the register may have been redefined since (dirty).
 * kNoCkpt entries mark paths from the program entry with no prior
 * checkpoint.
 */
template <typename Fn>
void
forEachKeptCkpt(const Program& prog, const std::set<std::size_t>& removed,
                Fn&& fn)
{
    Cfg cfg = Cfg::build(prog);
    // Entry: every register starts with "no checkpoint".
    CkptState entry;
    entry.fill({{kNoCkpt, false}});
    auto flow = solveForward(
        cfg, std::move(entry),
        [&](CkptState& s, std::size_t i) {
            const Instr& ins = prog.at(i);
            if (ins.op == Opcode::kCkpt) {
                if (!removed.count(i))  // removed ones are transparent
                    s[ins.rs1] = {{static_cast<long>(i), false}};
            } else if (ir::writesReg(ins)) {
                Reg rd = (ins.op == Opcode::kCall) ? ir::kLinkReg : ins.rd;
                for (auto& [idx, dirty] : s[rd])
                    dirty = true;
            }
        },
        [](CkptState& into, const CkptState& from) {
            bool changed = false;
            for (std::size_t r = 0; r < into.size(); ++r) {
                for (const auto& [idx, dirty] : from[r]) {
                    auto [it, inserted] = into[r].emplace(idx, dirty);
                    if (inserted) {
                        changed = true;
                    } else if (dirty && !it->second) {
                        it->second = true;
                        changed = true;
                    }
                }
            }
            return changed;
        });
    flow.replayEvery([&](std::size_t i, const CkptState& s) {
        const Instr& ins = prog.at(i);
        if (ins.op == Opcode::kCkpt && !removed.count(i))
            fn(i, ins, s[ins.rs1]);
    });
}

/** Conflict edges between kept checkpoints (dirty consecutive pairs). */
struct CkptGraph {
    std::map<Reg, std::map<std::size_t, std::set<std::size_t>>> adj;
    std::map<int, std::set<Reg>> selfConflicts;  // region id -> registers
};

CkptGraph
buildGraph(const Program& prog, const std::set<std::size_t>& removed)
{
    CkptGraph graph;
    forEachKeptCkpt(prog, removed, [&](std::size_t i, const Instr& ins,
                                       const PerReg& entries) {
        Reg r = ins.rs1;
        for (const auto& [prev, dirty] : entries) {
            if (prev == kNoCkpt || !dirty)
                continue;
            auto p = static_cast<std::size_t>(prev);
            graph.adj[r][p].insert(i);
            graph.adj[r][i].insert(p);
            if (p == i)
                graph.selfConflicts[ins.target].insert(r);
        }
    });
    return graph;
}

}  // namespace

SlotColoring::Result
SlotColoring::run(Program& prog, std::vector<RegionSeed>& seeds,
                  bool cleanElim)
{
    Result result;
    std::set<std::size_t> removed;

    // ------------------------------------------------------------------
    // Phase 1: break self-conflicts with fix regions.
    // ------------------------------------------------------------------
    for (int round = 0; round < 8; ++round) {
        CkptGraph graph = buildGraph(prog, removed);
        if (graph.selfConflicts.empty())
            break;
        if (round == 7)
            throw std::runtime_error(
                "slot colouring: self-conflicts did not converge");

        std::map<int, std::size_t> boundary_of;
        for (std::size_t i = 0; i < prog.size(); ++i)
            if (prog.at(i).op == Opcode::kBoundary)
                boundary_of[prog.at(i).imm] = i;

        std::vector<std::pair<std::size_t, int>> todo;
        for (const auto& [id, regs] : graph.selfConflicts)
            todo.emplace_back(boundary_of.at(id), id);
        std::sort(todo.rbegin(), todo.rend());

        for (const auto& [bidx, id] : todo) {
            int new_id = static_cast<int>(seeds.size());
            const auto& regs = graph.selfConflicts.at(id);

            Instr boundary;
            boundary.op = Opcode::kBoundary;
            boundary.imm = new_id;
            prog.insertBefore(bidx + 1, boundary, /*before_label=*/false);
            for (auto it = regs.rbegin(); it != regs.rend(); ++it) {
                Instr ck;
                ck.op = Opcode::kCkpt;
                ck.rs1 = *it;
                ck.imm = -1;
                ck.target = new_id;
                prog.insertBefore(bidx + 1, ck, /*before_label=*/false);
                ++result.fixCkpts;
            }

            RegionSeed seed;
            seed.id = new_id;
            seed.liveIn = seeds.at(static_cast<std::size_t>(id)).liveIn;
            seed.parentId = id;
            seeds.push_back(std::move(seed));
            ++result.fixRegions;
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: clean-checkpoint elimination (fixpoint).
    // ------------------------------------------------------------------
    // inheritFrom[removedCkpt] = the kept checkpoint whose slot the
    // region inherits (may chain through later removals).
    std::map<std::size_t, std::size_t> inherit_from;
    if (cleanElim) {
        // Fix-region checkpoints exist precisely to break self-conflicts;
        // never eliminate them.
        std::set<std::size_t> protected_ckpts;
        auto is_fix_region = [&seeds](int id) {
            return id >= 0 && static_cast<std::size_t>(id) < seeds.size() &&
                   seeds[static_cast<std::size_t>(id)].parentId >= 0;
        };
        for (std::size_t i = 0; i < prog.size(); ++i) {
            const Instr& ins = prog.at(i);
            if (ins.op == Opcode::kCkpt && is_fix_region(ins.target))
                protected_ckpts.insert(i);
        }

        auto run_elim = [&]() {
            bool changed = true;
            while (changed) {
                changed = false;
                std::map<std::size_t, std::size_t> candidates;
                forEachKeptCkpt(prog, removed, [&](std::size_t i,
                                                   const Instr& ins,
                                                   const PerReg& entries) {
                    (void)ins;
                    if (removed.count(i) || protected_ckpts.count(i))
                        return;
                    if (entries.empty())
                        return;
                    std::set<long> others;
                    for (const auto& [prev, dirty] : entries) {
                        if (dirty)
                            return;  // value may differ: keep
                        if (prev == kNoCkpt)
                            return;  // no slot to inherit on some path
                        if (prev != static_cast<long>(i))
                            others.insert(prev);
                    }
                    if (others.size() != 1)
                        return;  // ambiguous inheritance: keep
                    candidates.emplace(
                        i, static_cast<std::size_t>(*others.begin()));
                });
                for (const auto& [c, k] : candidates) {
                    removed.insert(c);
                    inherit_from[c] = k;
                    changed = true;
                }
            }
        };
        run_elim();

        // Removal can make two dynamic instances of one kept checkpoint
        // consecutive with a redefinition in between — a self-conflict
        // phase 1 never saw.  Detect and conservatively un-remove every
        // eliminated checkpoint of the affected registers.
        for (int round = 0; round < 8; ++round) {
            CkptGraph check = buildGraph(prog, removed);
            std::set<Reg> bad;
            for (const auto& [id, regs] : check.selfConflicts)
                bad.insert(regs.begin(), regs.end());
            if (bad.empty())
                break;
            if (round == 7)
                throw std::runtime_error(
                    "clean elimination: self-conflict repair diverged");
            for (auto it = removed.begin(); it != removed.end();) {
                if (bad.count(prog.at(*it).rs1)) {
                    inherit_from.erase(*it);
                    protected_ckpts.insert(*it);
                    it = removed.erase(it);
                } else {
                    ++it;
                }
            }
            run_elim();
        }
        result.cleanEliminated = static_cast<int>(removed.size());
    }

    // ------------------------------------------------------------------
    // Phase 3: greedy colouring of the kept checkpoints.
    // ------------------------------------------------------------------
    CkptGraph graph = buildGraph(prog, removed);
    std::map<std::size_t, int> color;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        if (prog.at(i).op != Opcode::kCkpt || removed.count(i))
            continue;
        Reg r = prog.at(i).rs1;
        std::set<int> used;
        auto reg_it = graph.adj.find(r);
        if (reg_it != graph.adj.end()) {
            auto node_it = reg_it->second.find(i);
            if (node_it != reg_it->second.end()) {
                for (std::size_t neigh : node_it->second) {
                    auto c = color.find(neigh);
                    if (c != color.end())
                        used.insert(c->second);
                }
            }
        }
        int slot = 0;
        while (used.count(slot))
            ++slot;
        if (slot >= kMaxSlots)
            throw std::runtime_error(
                "slot colouring: more than kMaxSlots colours required");
        color[i] = slot;
        prog.at(i).imm = slot;
        result.slotsUsed = std::max(result.slotsUsed, slot + 1);
    }

    // ------------------------------------------------------------------
    // Phase 4: emit inherited restore entries and erase removed stores.
    // ------------------------------------------------------------------
    for (const auto& [c, k0] : inherit_from) {
        std::size_t k = k0;
        while (removed.count(k))
            k = inherit_from.at(k);
        InheritedCkpt entry;
        entry.regionId = prog.at(c).target;
        entry.reg = prog.at(c).rs1;
        entry.slot = color.at(k);
        result.inherited.push_back(entry);
    }
    for (auto it = removed.rbegin(); it != removed.rend(); ++it)
        prog.erase(*it);
    return result;
}

}  // namespace gecko::compiler
