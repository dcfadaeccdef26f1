#include "compiler/loop_analysis.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;
using ir::Reg;

namespace {

/** Collect the natural loop of back edge latch->header. */
void
collectBody(const Cfg& cfg, BlockId header, BlockId latch,
            std::set<BlockId>& body)
{
    body.insert(header);
    std::vector<BlockId> work;
    if (body.insert(latch).second)
        work.push_back(latch);
    while (!work.empty()) {
        BlockId b = work.back();
        work.pop_back();
        for (BlockId pred : cfg.block(b).preds)
            if (body.insert(pred).second)
                work.push_back(pred);
    }
}

/**
 * Try to derive a trip bound for the counted-loop pattern.
 *
 * Requirements: a single latch whose terminator is a conditional branch
 * back to the header; the counter register is updated by exactly one
 * in-loop `add/sub reg, reg, #const`; every out-of-loop definition
 * reaching the header is a constant kMovi; the comparison bound is a
 * constant at the latch.
 */
std::optional<long>
tripBound(const FlowAnalyses& flow, NaturalLoop& loop)
{
    const Program& prog = flow.prog;
    const Cfg& cfg = flow.cfg;
    if (loop.latches.size() != 1)
        return std::nullopt;
    const BasicBlock& latch = cfg.block(loop.latches.front());
    const Instr& br = prog.at(latch.last);
    if (!ir::isCondBranch(br.op))
        return std::nullopt;
    std::size_t header_first = cfg.block(loop.header).first;
    if (prog.labelPos(br.target) != header_first)
        return std::nullopt;  // branch does not continue the loop

    // Identify counter and bound operands: counter varies in the loop,
    // bound is constant at the latch.
    auto const_at = [&](Reg r) -> std::optional<long> {
        ConstVal v = flow.aa.regAt(latch.last, r);
        if (!v.isConst())
            return std::nullopt;
        return static_cast<long>(static_cast<std::int32_t>(v.value));
    };

    for (bool swapped : {false, true}) {
        Reg counter = swapped ? br.rs2 : br.rs1;
        Reg bound_reg = swapped ? br.rs1 : br.rs2;
        auto bound_val = const_at(bound_reg);
        if (!bound_val)
            continue;

        // Exactly one in-loop def of the counter: add/sub imm of itself.
        const Instr* step_instr = nullptr;
        bool multiple = false;
        for (BlockId b : loop.blocks) {
            const BasicBlock& block = cfg.block(b);
            for (std::size_t i = block.first; i <= block.last; ++i) {
                const Instr& ins = prog.at(i);
                if (!ir::writesReg(ins))
                    continue;
                Reg rd = (ins.op == Opcode::kCall) ? ir::kLinkReg : ins.rd;
                if (rd != counter)
                    continue;
                if (step_instr)
                    multiple = true;
                step_instr = &ins;
            }
        }
        if (!step_instr || multiple)
            continue;
        if ((step_instr->op != Opcode::kAdd &&
             step_instr->op != Opcode::kSub) ||
            !step_instr->useImm || step_instr->rs1 != counter ||
            step_instr->imm <= 0)
            continue;
        long step = step_instr->imm;
        bool increasing = step_instr->op == Opcode::kAdd;

        // All out-of-loop reaching defs of the counter at the header must
        // be constants; take the worst (largest trip count) initial value.
        std::optional<long> worst_init;
        bool ok = true;
        for (std::int32_t d : flow.rdefs.defsAt(header_first, counter)) {
            if (d == ReachingDefs::kEntryDef) {
                // Boot value 0 — a valid constant initialiser.
                long init = 0;
                if (!worst_init ||
                    (increasing ? init < *worst_init : init > *worst_init))
                    worst_init = init;
                continue;
            }
            auto di = static_cast<std::size_t>(d);
            if (loop.contains(cfg.blockOf(di)))
                continue;  // the step instruction
            const Instr& def = prog.at(di);
            if (def.op != Opcode::kMovi) {
                ok = false;
                break;
            }
            long init = def.imm;
            if (!worst_init ||
                (increasing ? init < *worst_init : init > *worst_init))
                worst_init = init;
        }
        if (!ok || !worst_init)
            continue;
        long init = *worst_init;
        long bound = *bound_val;

        // Continue-while conditions (the branch *taken* repeats the loop).
        long trips = -1;
        switch (br.op) {
          case Opcode::kBlt:
          case Opcode::kBltu:
            // while (counter < bound), counter increasing
            if (!swapped && increasing)
                trips = bound > init ? (bound - init + step - 1) / step : 1;
            break;
          case Opcode::kBge:
          case Opcode::kBgeu:
            // while (counter >= bound), counter decreasing
            if (!swapped && !increasing)
                trips = init >= bound ? (init - bound) / step + 1 : 1;
            break;
          case Opcode::kBne:
            // while (counter != bound): requires exact landing
            if (increasing && bound > init &&
                (bound - init) % step == 0)
                trips = (bound - init) / step;
            else if (!increasing && init > bound &&
                     (init - bound) % step == 0)
                trips = (init - bound) / step;
            break;
          default:
            break;
        }
        if (trips < 0 || trips > LoopAnalysis::kMaxTripBound)
            continue;
        // The machine compares and wraps 32-bit words: an unsigned latch
        // reads a negative init, bound or last value as a huge one, and a
        // counter whose last step leaves int32 wraps instead of exiting.
        const long last = init + (increasing ? step : -step) * trips;
        const bool is_unsigned =
            br.op == Opcode::kBltu || br.op == Opcode::kBgeu;
        if ((is_unsigned && std::min({init, bound, last}) < 0) ||
            last < std::numeric_limits<std::int32_t>::min() ||
            last > std::numeric_limits<std::int32_t>::max())
            continue;
        loop.counterReg = counter;
        loop.counterInit = init;
        loop.counterStep = increasing ? step : -step;
        return std::max<long>(trips, 1);
    }
    return std::nullopt;
}

}  // namespace

std::vector<NaturalLoop>
LoopAnalysis::analyze(const FlowAnalyses& flow)
{
    const Cfg& cfg = flow.cfg;
    // Back edges: succ edge b -> h where h dominates b.
    std::map<BlockId, NaturalLoop> by_header;
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b) {
        BlockId from = static_cast<BlockId>(b);
        for (BlockId to : cfg.block(from).succs) {
            if (!flow.dom.dominates(to, from))
                continue;
            NaturalLoop& loop = by_header[to];
            loop.header = to;
            loop.latches.push_back(from);
            collectBody(cfg, to, from, loop.blocks);
        }
    }

    std::vector<NaturalLoop> loops;
    for (auto& [h, loop] : by_header) {
        loop.tripBound = tripBound(flow, loop);
        loops.push_back(std::move(loop));
    }
    // Innermost first (smaller bodies first).
    std::sort(loops.begin(), loops.end(),
              [](const NaturalLoop& a, const NaturalLoop& b) {
                  return a.blocks.size() < b.blocks.size();
              });
    return loops;
}

std::optional<std::pair<long, long>>
RangeAnalysis::addrRange(std::size_t idx) const
{
    const Instr& ins = prog_.at(idx);
    if (ins.op != Opcode::kLoad && ins.op != Opcode::kStore)
        return std::nullopt;
    auto base = valueRange(ins.rs1, idx);
    // Addresses are 32-bit words: a range that leaves [0, 2^32) wraps
    // onto words it does not name.
    if (!base || base->first + ins.imm < 0 ||
        base->second + ins.imm >= (1L << 32))
        return std::nullopt;
    return std::make_pair(base->first + ins.imm, base->second + ins.imm);
}

std::optional<std::pair<long, long>>
RangeAnalysis::valueRange(Reg r, std::size_t point, int depth) const
{
    if (depth > 6)
        return std::nullopt;

    // Known constant at this point.
    ConstVal cv = aa_.regAt(point, r);
    if (cv.isConst()) {
        long v = static_cast<long>(static_cast<std::int32_t>(cv.value));
        return std::make_pair(v, v);
    }

    // The counter of an enclosing counted loop (innermost match wins;
    // loops_ is ordered innermost-first).
    BlockId block = cfg_.blockOf(point);
    for (const NaturalLoop& loop : loops_) {
        if (loop.counterReg == static_cast<int>(r) && loop.tripBound &&
            loop.contains(block))
            return loop.counterRange();
    }

    // Chase a unique dominating definition through simple arithmetic.
    std::int32_t d = rdefs_.uniqueDefAt(point, r);
    if (d < 0)
        return std::nullopt;
    std::size_t def = static_cast<std::size_t>(d);
    if (!dom_.dominatesInstr(cfg_, def, point))
        return std::nullopt;
    const Instr& ins = prog_.at(def);
    // Past [INT32_MIN, UINT32_MAX] the machine's 32-bit value has
    // wrapped, and a further product could overflow `long`: no range.
    auto word = [](long lo, long hi) -> std::optional<std::pair<long, long>> {
        if (lo < std::numeric_limits<std::int32_t>::min() ||
            hi > std::numeric_limits<std::uint32_t>::max())
            return std::nullopt;
        return std::make_pair(lo, hi);
    };
    switch (ins.op) {
      case Opcode::kMovi:
        return std::make_pair<long, long>(ins.imm, ins.imm);
      case Opcode::kMov:
        return valueRange(ins.rs1, def, depth + 1);
      case Opcode::kAdd:
      case Opcode::kSub: {
        auto a = valueRange(ins.rs1, def, depth + 1);
        if (!a)
            return std::nullopt;
        std::pair<long, long> b;
        if (ins.useImm) {
            b = {ins.imm, ins.imm};
        } else {
            auto rb = valueRange(ins.rs2, def, depth + 1);
            if (!rb)
                return std::nullopt;
            b = *rb;
        }
        if (ins.op == Opcode::kAdd)
            return word(a->first + b.first, a->second + b.second);
        return word(a->first - b.second, a->second - b.first);
      }
      case Opcode::kMul: {
        if (!ins.useImm || ins.imm < 0)
            return std::nullopt;
        auto a = valueRange(ins.rs1, def, depth + 1);
        if (!a)
            return std::nullopt;
        return word(a->first * ins.imm, a->second * ins.imm);
      }
      default:
        return std::nullopt;
    }
}

bool
LoopAnalysis::hasInternalBoundary(const Program& prog, const Cfg& cfg,
                                  const NaturalLoop& loop)
{
    for (BlockId b : loop.blocks) {
        const BasicBlock& block = cfg.block(b);
        for (std::size_t i = block.first; i <= block.last; ++i)
            if (prog.at(i).op == Opcode::kBoundary)
                return true;
    }
    return false;
}

}  // namespace gecko::compiler
