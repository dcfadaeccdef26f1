#include "compiler/liveness.hpp"

#include <algorithm>

#include "compiler/dataflow.hpp"

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;
using ir::Reg;

namespace {

RegMask
useMask(const Instr& ins)
{
    if (ins.op == Opcode::kRet)
        return 0xffff;  // conservative: whole register file survives a return
    RegMask m = 0;
    for (Reg r : ir::regsRead(ins))
        m |= regBit(r);
    return m;
}

RegMask
defMask(const Instr& ins)
{
    if (!ir::writesReg(ins))
        return 0;
    if (ins.op == Opcode::kCall)
        return regBit(ir::kLinkReg);
    return regBit(ins.rd);
}

}  // namespace

Liveness
Liveness::build(const Program& prog, const Cfg& cfg)
{
    Liveness live;
    live.liveIn_.assign(prog.size(), 0);
    live.liveOut_.assign(prog.size(), 0);
    auto flow = solveBackward<RegMask>(
        cfg,
        [&prog](RegMask& mask, std::size_t i) {
            const Instr& ins = prog.at(i);
            mask = static_cast<RegMask>((mask & ~defMask(ins)) |
                                        useMask(ins));
        },
        [](RegMask& into, RegMask from) {
            RegMask old = into;
            into |= from;
            return into != old;
        });
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b) {
        const BasicBlock& block = cfg.block(static_cast<BlockId>(b));
        // Inside a block an instruction's live-out is the live-in of the
        // instruction after it.
        live.liveIn_[block.first] = flow.replay(
            static_cast<BlockId>(b), [&](std::size_t i, RegMask out) {
                live.liveOut_[i] = out;
                if (i < block.last)
                    live.liveIn_[i + 1] = out;
            });
    }
    return live;
}

std::int32_t
ReachingDefs::uniqueDefAt(std::size_t idx, ir::Reg r) const
{
    const auto& defs = defsAt(idx, r);
    if (defs.size() == 1 && defs[0] != kEntryDef)
        return defs[0];
    return -2;
}

ReachingDefs
ReachingDefs::build(const Program& prog, const Cfg& cfg)
{
    using RegDefs = std::array<std::vector<std::int32_t>, ir::kNumRegs>;
    ReachingDefs rd;
    rd.in_.resize(prog.size());
    // Entry: all registers carry the pseudo entry definition.
    RegDefs entry;
    entry.fill({kEntryDef});
    auto flow = solveForward(
        cfg, std::move(entry),
        [&prog](RegDefs& defs, std::size_t i) {
            const Instr& ins = prog.at(i);
            if (ir::writesReg(ins)) {
                Reg target = (ins.op == Opcode::kCall) ? ir::kLinkReg
                                                       : ins.rd;
                defs[target] = {static_cast<std::int32_t>(i)};
            }
        },
        [](RegDefs& into, const RegDefs& from) {
            bool changed = false;
            for (std::size_t r = 0; r < into.size(); ++r) {
                for (std::int32_t d : from[r]) {
                    auto it = std::lower_bound(into[r].begin(),
                                               into[r].end(), d);
                    if (it == into[r].end() || *it != d) {
                        into[r].insert(it, d);
                        changed = true;
                    }
                }
            }
            return changed;
        });
    flow.replayEvery(
        [&rd](std::size_t i, const RegDefs& defs) { rd.in_[i] = defs; });
    return rd;
}

}  // namespace gecko::compiler
