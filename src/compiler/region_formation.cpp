#include "compiler/region_formation.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "compiler/dataflow.hpp"
#include "compiler/loop_analysis.hpp"

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;

namespace {

Instr
boundaryInstr()
{
    Instr ins;
    ins.op = Opcode::kBoundary;
    ins.imm = -1;  // region id assigned later by CheckpointInsertion
    return ins;
}

/**
 * Would a boundary inserted before `pos` be redundant (position already
 * starts with, or is directly preceded by, a boundary)?
 */
bool
guarded(const Program& prog, std::size_t pos)
{
    if (pos < prog.size() && prog.at(pos).op == Opcode::kBoundary)
        return true;
    if (pos > 0 && prog.at(pos - 1).op == Opcode::kBoundary)
        return true;
    return false;
}

}  // namespace

int
RegionFormation::insertStructuralBoundaries(Program& prog,
                                            const RegionFormationConfig& cfg)
{
    Cfg graph = Cfg::build(prog);
    std::set<std::size_t> positions;
    positions.insert(0);

    for (std::size_t i = 0; i < prog.size(); ++i) {
        const Instr& ins = prog.at(i);
        if (cfg.cutLoopHeaders) {
            BlockId b = graph.blockOf(i);
            if (graph.isLoopHeader(b) && graph.block(b).first == i)
                positions.insert(i);
        }
        if (ins.op == Opcode::kCall) {
            positions.insert(i);
            positions.insert(i + 1);                   // return point
            positions.insert(prog.labelPos(ins.target));  // callee entry
        }
        if (ins.op == Opcode::kIn || ins.op == Opcode::kOut) {
            positions.insert(i);
            positions.insert(i + 1);
        }
        // A boundary before kHalt makes program completion a committed
        // region: a power failure after the halt re-executes only the
        // halt, never re-emitting I/O.
        if (ins.op == Opcode::kHalt)
            positions.insert(i);
    }

    int inserted = 0;
    for (auto it = positions.rbegin(); it != positions.rend(); ++it) {
        std::size_t pos = *it;
        if (pos >= prog.size())
            continue;  // nothing executes past the final terminator
        if (guarded(prog, pos))
            continue;
        prog.insertBefore(pos, boundaryInstr(), /*before_label=*/true);
        ++inserted;
    }
    return inserted;
}

int
RegionFormation::cutAntiDependences(Program& prog, bool preciseAliasing)
{
    FlowAnalyses flow(prog);
    const Cfg& graph = flow.cfg;
    const AliasAnalysis& aa = flow.aa;
    std::vector<NaturalLoop> loops = LoopAnalysis::analyze(flow);
    RangeAnalysis ranges(prog, graph, flow.dom, flow.rdefs, aa, loops);

    // May the accesses at `l` (load) and `s` (store) touch the same word?
    auto accesses_may_alias = [&](std::size_t l, std::size_t s) {
        if (!preciseAliasing)
            return true;  // Ratchet's binary-level conservatism
        if (aa.alias(l, s) == AliasVerdict::kNoAlias)
            return false;
        // Fall back to index ranges: disjoint array footprints cannot
        // collide even with loop-variant indices.
        auto rl = ranges.addrRange(l);
        auto rs = ranges.addrRange(s);
        if (rl && rs &&
            (rl->second < rs->first || rs->second < rl->first))
            return false;
        return true;
    };

    // Forward dataflow.  Per point:
    //   reads:   load instructions executed since the last boundary on SOME
    //            path (union at joins) and not WARAW-protected,
    //   written: constant addresses stored since the last boundary on EVERY
    //            path (intersection at joins; nullopt = top).
    struct State {
        std::set<std::size_t> reads;
        std::optional<std::set<std::uint32_t>> written;  // nullopt = top
    };

    auto join = [](State& into, const State& from) {
        bool changed = false;
        for (std::size_t l : from.reads)
            changed |= into.reads.insert(l).second;
        if (!into.written) {
            changed |= from.written.has_value();
            into.written = from.written;
        } else if (from.written) {
            changed |= std::erase_if(*into.written, [&](std::uint32_t a) {
                return !from.written->count(a);
            }) > 0;
        }
        return changed;
    };

    // store instr -> one witnessing earlier load (for hoisting), recorded
    // only by the replay of the solved states.
    std::map<std::size_t, std::size_t> violations;
    bool record = false;

    auto step = [&](State& s, std::size_t i) {
        if (!s.written)
            s.written.emplace();
        const Instr& ins = prog.at(i);
        switch (ins.op) {
          case Opcode::kBoundary:
            s.reads.clear();
            s.written->clear();
            break;
          case Opcode::kCall:
            // Callee effects unknown; surrounding boundaries normally
            // clear state, but stay conservative regardless.
            s.reads.clear();
            s.written->clear();
            break;
          case Opcode::kLoad: {
            auto addr = aa.constAddr(i);
            if (!preciseAliasing || !(addr && s.written->count(*addr)))
                s.reads.insert(i);
            break;
          }
          case Opcode::kStore: {
            auto witness = std::find_if(
                s.reads.begin(), s.reads.end(),
                [&](std::size_t l) { return accesses_may_alias(l, i); });
            if (witness != s.reads.end()) {
                if (record)
                    violations.emplace(i, *witness);
                // Model the boundary that will be inserted before i.
                s.reads.clear();
                s.written->clear();
            }
            if (auto addr = aa.constAddr(i))
                s.written->insert(*addr);
            break;
          }
          default:
            break;
        }
    };

    // Entry starts a fresh region (a boundary is always present at 0 after
    // structural placement, but be robust without it).  An unreachable
    // block cannot add a cut: only the blocks the schedule visits replay.
    State entry;
    entry.written.emplace();
    auto solved = solveForward(graph, std::move(entry), step, join);
    record = true;
    solved.replayReached([](std::size_t, const State&) {});

    // Pick each violation's boundary position.  A store whose
    // anti-dependent load lives *outside* the store's loop only
    // conflicts across iterations of an outer trip, so the cut can be
    // hoisted to the loop's preheader (one boundary per loop entry
    // instead of one per iteration).  The hoist is only legal when
    // every out-of-loop path enters the header by fall-through (the
    // inserted instruction would be skipped by a direct jump).
    std::set<std::pair<std::size_t, bool>> cuts;  // (pos, before_label)
    for (const auto& [store, load] : violations) {
        std::size_t pos = store;
        bool before_label = true;
        BlockId store_block = graph.blockOf(store);
        BlockId load_block = graph.blockOf(load);
        const NaturalLoop* hoist = nullptr;
        for (const NaturalLoop& loop : loops) {
            if (!loop.contains(store_block) || loop.contains(load_block))
                continue;
            bool fallthrough_entry = true;
            std::size_t header_first = graph.block(loop.header).first;
            for (BlockId pred : graph.block(loop.header).preds) {
                if (loop.contains(pred))
                    continue;  // back edge
                if (graph.block(pred).last + 1 != header_first)
                    fallthrough_entry = false;
            }
            if (!fallthrough_entry)
                continue;
            // Outermost eligible loop wins (loops are innermost-first).
            hoist = &loop;
        }
        if (hoist) {
            pos = graph.block(hoist->header).first;
            before_label = false;  // preheader: back edges skip it
        }
        cuts.emplace(pos, before_label);
    }

    int inserted = 0;
    for (auto it = cuts.rbegin(); it != cuts.rend(); ++it) {
        if (guarded(prog, it->first))
            continue;
        prog.insertBefore(it->first, boundaryInstr(), it->second);
        ++inserted;
    }
    return inserted;
}

void
RegionFormation::run(Program& prog, const RegionFormationConfig& cfg)
{
    insertStructuralBoundaries(prog, cfg);
    while (cutAntiDependences(prog, cfg.preciseAliasing) > 0) {
    }
}

}  // namespace gecko::compiler
