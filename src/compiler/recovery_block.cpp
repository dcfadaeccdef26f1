#include "compiler/recovery_block.hpp"

#include <algorithm>
#include <set>

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Reg;

namespace {

/** Is `ins` re-executable inside a recovery block? */
bool
safeSliceInstr(const FlowAnalyses& ctx, std::size_t idx)
{
    const Instr& ins = ctx.prog.at(idx);
    switch (ins.op) {
      case Opcode::kMovi:
      case Opcode::kMov:
      case Opcode::kNot:
      case Opcode::kNeg:
        return true;
      case Opcode::kLoad:
        return ctx.aa.isReadOnlyLoad(idx);
      default:
        return ir::isBinaryAlu(ins.op);
    }
}

class SliceWalker
{
  public:
    SliceWalker(const FlowAnalyses& ctx, std::size_t boundary,
                RegMask live_in, int max_instrs)
        : ctx_(ctx), boundary_(boundary), liveIn_(live_in),
          maxInstrs_(max_instrs) {}

    /**
     * Ensure the value register `s` held just before instruction `point`
     * executed is reproducible.  Fills slice_/terminals_.
     */
    bool
    need(Reg s, std::size_t point, int depth, bool allow_terminal = true)
    {
        if (depth > 24)
            return false;

        const auto& defs_p = ctx_.rdefs.defsAt(point, s);
        const auto& defs_b = ctx_.rdefs.defsAt(boundary_, s);
        if (allow_terminal && defs_p == defs_b && (liveIn_ & regBit(s))) {
            terminals_.insert(s);
            return true;
        }

        std::int32_t d = ctx_.rdefs.uniqueDefAt(point, s);
        if (d < 0)
            return false;  // ambiguous or entry definition
        std::size_t def = static_cast<std::size_t>(d);
        if (!ctx_.dom.dominatesInstr(ctx_.cfg, def, boundary_))
            return false;
        if (!safeSliceInstr(ctx_, def))
            return false;
        if (slice_.count(def))
            return true;
        if (static_cast<int>(slice_.size()) >= maxInstrs_)
            return false;
        slice_.insert(def);
        for (Reg src : ir::regsRead(ctx_.prog.at(def))) {
            if (!need(src, def, depth + 1))
                return false;
        }
        return true;
    }

    /**
     * Finalize: order slice by instruction index and verify that every
     * non-terminal operand is produced by an earlier slice instruction and
     * that no slice instruction clobbers a terminal.
     */
    std::optional<RecoverySpec>
    finalize(Reg target)
    {
        std::vector<std::size_t> order(slice_.begin(), slice_.end());
        std::sort(order.begin(), order.end());

        std::set<Reg> defined;
        for (std::size_t idx : order) {
            const Instr& ins = ctx_.prog.at(idx);
            for (Reg src : ir::regsRead(ins)) {
                if (terminals_.count(src))
                    continue;
                if (!defined.count(src))
                    return std::nullopt;  // ordering not realizable
            }
            if (terminals_.count(ins.rd))
                return std::nullopt;  // would clobber a restored input
            defined.insert(ins.rd);
        }
        if (!defined.count(target))
            return std::nullopt;

        RecoverySpec spec;
        spec.reg = target;
        for (std::size_t idx : order)
            spec.code.push_back(ctx_.prog.at(idx));
        spec.dependsOn.assign(terminals_.begin(), terminals_.end());
        return spec;
    }

  private:
    const FlowAnalyses& ctx_;
    std::size_t boundary_;
    RegMask liveIn_;
    int maxInstrs_;
    std::set<std::size_t> slice_;
    std::set<Reg> terminals_;
};

}  // namespace

std::optional<RecoverySpec>
RecoveryBuilder::build(const FlowAnalyses& ctx, std::size_t boundaryIdx,
                       Reg reg, RegMask liveIn, int maxInstrs)
{
    // A register never written since boot holds 0 at the boundary (the
    // machine boots with a zeroed register file and rollback re-zeroes
    // volatile state), so an entry-only definition prunes to `movi reg,0`.
    const auto& defs_b = ctx.rdefs.defsAt(boundaryIdx, reg);
    if (defs_b.size() == 1 && defs_b[0] == ReachingDefs::kEntryDef) {
        RecoverySpec spec;
        spec.reg = reg;
        Instr mv;
        mv.op = Opcode::kMovi;
        mv.rd = reg;
        mv.imm = 0;
        spec.code.push_back(mv);
        return spec;
    }

    SliceWalker walker(ctx, boundaryIdx, liveIn, maxInstrs);
    // The root register must expand into its defining slice; it cannot
    // terminate at itself.
    if (!walker.need(reg, boundaryIdx, 0, /*allow_terminal=*/false))
        return std::nullopt;
    return walker.finalize(reg);
}

}  // namespace gecko::compiler
