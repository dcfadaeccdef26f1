#include "compiler/alias_analysis.hpp"

#include <array>

#include "compiler/dataflow.hpp"

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;
using ir::Reg;

ConstVal
ConstVal::meet(const ConstVal& a, const ConstVal& b)
{
    if (a.kind == Kind::kTop)
        return b;
    if (b.kind == Kind::kTop)
        return a;
    if (a.kind == Kind::kBottom || b.kind == Kind::kBottom)
        return bottom();
    return (a.value == b.value) ? a : bottom();
}

namespace {

using RegLattice = std::array<ConstVal, ir::kNumRegs>;

/** Constant-propagation step: apply `ins` to `env`. */
void
stepInstr(RegLattice& env, const Instr& ins)
{
    auto operand = [&env](const Instr& i) -> ConstVal {
        if (i.useImm)
            return ConstVal::constant(static_cast<std::uint32_t>(i.imm));
        return env[i.rs2];
    };

    switch (ins.op) {
      case Opcode::kMovi:
        env[ins.rd] =
            ConstVal::constant(static_cast<std::uint32_t>(ins.imm));
        break;
      case Opcode::kMov:
        env[ins.rd] = env[ins.rs1];
        break;
      case Opcode::kNot:
      case Opcode::kNeg:
        env[ins.rd] = env[ins.rs1].isConst()
            ? ConstVal::constant(ir::evalUnary(ins.op, env[ins.rs1].value))
            : ConstVal::bottom();
        break;
      case Opcode::kLoad:
      case Opcode::kIn:
        env[ins.rd] = ConstVal::bottom();
        break;
      case Opcode::kCall:
        env[ir::kLinkReg] = ConstVal::bottom();
        break;
      default:
        if (ir::isBinaryAlu(ins.op)) {
            ConstVal a = env[ins.rs1];
            ConstVal b = operand(ins);
            env[ins.rd] = (a.isConst() && b.isConst())
                ? ConstVal::constant(ir::evalBinary(ins.op, a.value, b.value))
                : ConstVal::bottom();
        }
        break;
    }
}

}  // namespace

AliasAnalysis
AliasAnalysis::build(const Program& prog, const Cfg& cfg,
                     const ReachingDefs& rdefs)
{
    AliasAnalysis aa;
    aa.prog_ = &prog;
    aa.cfg_ = &cfg;
    aa.rdefs_ = &rdefs;
    const std::size_t n = prog.size();
    aa.in_.resize(n);

    // Entry registers carry unknown values.
    RegLattice entry;
    entry.fill(ConstVal::bottom());
    auto flow = solveForward(
        cfg, entry,
        [&prog](RegLattice& env, std::size_t i) {
            stepInstr(env, prog.at(i));
        },
        [](RegLattice& into, const RegLattice& from) {
            bool changed = false;
            for (std::size_t r = 0; r < into.size(); ++r) {
                ConstVal m = ConstVal::meet(into[r], from[r]);
                changed |= !(m == into[r]);
                into[r] = m;
            }
            return changed;
        });
    flow.replayEvery(
        [&aa](std::size_t i, const RegLattice& env) { aa.in_[i] = env; });

    // Collect the set of written addresses for read-only classification.
    for (std::size_t i = 0; i < n; ++i) {
        if (prog.at(i).op != Opcode::kStore)
            continue;
        if (auto addr = aa.constAddr(i))
            aa.writtenAddrs_.insert(*addr);
        else
            aa.hasUnknownStore_ = true;
    }
    return aa;
}

std::optional<std::uint32_t>
AliasAnalysis::constAddr(std::size_t idx) const
{
    const Instr& ins = prog_->at(idx);
    if (ins.op != Opcode::kLoad && ins.op != Opcode::kStore)
        return std::nullopt;
    const ConstVal& base = in_.at(idx).at(ins.rs1);
    if (!base.isConst())
        return std::nullopt;
    return base.value + static_cast<std::uint32_t>(ins.imm);
}

AliasVerdict
AliasAnalysis::alias(std::size_t a, std::size_t b) const
{
    auto addr_a = constAddr(a);
    auto addr_b = constAddr(b);
    if (addr_a && addr_b)
        return (*addr_a == *addr_b) ? AliasVerdict::kMustAlias
                                    : AliasVerdict::kNoAlias;

    // Same symbolic base (identical register fed by identical reaching
    // definition) with different offsets cannot collide.
    const Instr& ia = prog_->at(a);
    const Instr& ib = prog_->at(b);
    if (ia.rs1 == ib.rs1) {
        std::int32_t def_a = rdefs_->uniqueDefAt(a, ia.rs1);
        std::int32_t def_b = rdefs_->uniqueDefAt(b, ib.rs1);
        if (def_a != -2 && def_a == def_b) {
            return (ia.imm == ib.imm) ? AliasVerdict::kMustAlias
                                      : AliasVerdict::kNoAlias;
        }
    }
    return AliasVerdict::kMayAlias;
}

bool
AliasAnalysis::isReadOnlyAddr(std::uint32_t addr) const
{
    return !hasUnknownStore_ && writtenAddrs_.count(addr) == 0;
}

bool
AliasAnalysis::isReadOnlyLoad(std::size_t idx) const
{
    if (prog_->at(idx).op != Opcode::kLoad)
        return false;
    auto addr = constAddr(idx);
    return addr && isReadOnlyAddr(*addr);
}

}  // namespace gecko::compiler
