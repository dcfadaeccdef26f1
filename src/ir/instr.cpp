#include "ir/instr.hpp"

namespace gecko::ir {

bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        return true;
      default:
        return false;
    }
}

bool
isUncondTransfer(Opcode op)
{
    switch (op) {
      case Opcode::kJmp:
      case Opcode::kCall:
      case Opcode::kRet:
      case Opcode::kHalt:
        return true;
      default:
        return false;
    }
}

bool
isTerminator(Opcode op)
{
    return isCondBranch(op) || isUncondTransfer(op);
}

bool
hasLabelTarget(Opcode op)
{
    return isCondBranch(op) || op == Opcode::kJmp || op == Opcode::kCall;
}

bool
isBinaryAlu(Opcode op)
{
    switch (op) {
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDivu:
      case Opcode::kRemu:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShr:
        return true;
      default:
        return false;
    }
}

bool
isUnaryAlu(Opcode op)
{
    return op == Opcode::kNot || op == Opcode::kNeg;
}

bool
writesReg(const Instr& ins)
{
    switch (ins.op) {
      case Opcode::kMovi:
      case Opcode::kMov:
      case Opcode::kLoad:
      case Opcode::kIn:
        return true;
      case Opcode::kCall:
        return true;  // writes the link register
      default:
        return isBinaryAlu(ins.op) || isUnaryAlu(ins.op);
    }
}

std::vector<Reg>
regsRead(const Instr& ins)
{
    std::vector<Reg> regs;
    switch (ins.op) {
      case Opcode::kMov:
      case Opcode::kNot:
      case Opcode::kNeg:
        regs.push_back(ins.rs1);
        break;
      case Opcode::kLoad:
        regs.push_back(ins.rs1);
        break;
      case Opcode::kStore:
        regs.push_back(ins.rs1);
        regs.push_back(ins.rs2);
        break;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        regs.push_back(ins.rs1);
        regs.push_back(ins.rs2);
        break;
      case Opcode::kOut:
        regs.push_back(ins.rs1);
        break;
      case Opcode::kRet:
        regs.push_back(kLinkReg);
        break;
      case Opcode::kCkpt:
        regs.push_back(ins.rs1);
        break;
      default:
        if (isBinaryAlu(ins.op)) {
            regs.push_back(ins.rs1);
            if (!ins.useImm)
                regs.push_back(ins.rs2);
        }
        break;
    }
    return regs;
}

const char*
mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::kNop: return "nop";
      case Opcode::kMovi: return "movi";
      case Opcode::kMov: return "mov";
      case Opcode::kAdd: return "add";
      case Opcode::kSub: return "sub";
      case Opcode::kMul: return "mul";
      case Opcode::kDivu: return "divu";
      case Opcode::kRemu: return "remu";
      case Opcode::kAnd: return "and";
      case Opcode::kOr: return "or";
      case Opcode::kXor: return "xor";
      case Opcode::kShl: return "shl";
      case Opcode::kShr: return "shr";
      case Opcode::kNot: return "not";
      case Opcode::kNeg: return "neg";
      case Opcode::kLoad: return "load";
      case Opcode::kStore: return "store";
      case Opcode::kBeq: return "beq";
      case Opcode::kBne: return "bne";
      case Opcode::kBlt: return "blt";
      case Opcode::kBge: return "bge";
      case Opcode::kBltu: return "bltu";
      case Opcode::kBgeu: return "bgeu";
      case Opcode::kJmp: return "jmp";
      case Opcode::kCall: return "call";
      case Opcode::kRet: return "ret";
      case Opcode::kIn: return "in";
      case Opcode::kOut: return "out";
      case Opcode::kHalt: return "halt";
      case Opcode::kBoundary: return "boundary";
      case Opcode::kCkpt: return "ckpt";
    }
    return "?";
}

int
cycleCost(const Instr& ins)
{
    switch (ins.op) {
      case Opcode::kNop: return 1;
      case Opcode::kMovi: return 1;
      case Opcode::kMov: return 1;
      case Opcode::kMul: return 5;
      case Opcode::kDivu: return 24;
      case Opcode::kRemu: return 24;
      case Opcode::kLoad: return 2;   // FRAM access (no wait state ≤ 8 MHz)
      case Opcode::kStore: return 2;  // FRAM write
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu: return 2;
      case Opcode::kJmp: return 2;
      case Opcode::kCall: return 4;
      case Opcode::kRet: return 3;
      // Peripheral transactions (sensor conversion, radio send) are
      // long atomic operations — ~50 µs at 8 MHz.  This is what the
      // paper observes EMI DoS interrupting "in the middle of (atomic)
      // task execution such as sending a message or sensing".
      case Opcode::kIn: return 400;
      case Opcode::kOut: return 400;
      case Opcode::kHalt: return 1;
      // Region boundary: one atomic NVM store of the region id (the
      // staged-I/O counters piggyback on the same commit word).
      case Opcode::kBoundary: return 2;
      // Checkpoint store: one NVM store into the double-buffered slot.
      case Opcode::kCkpt: return 2;
      default: return 1;  // remaining single-cycle ALU ops
    }
}

}  // namespace gecko::ir
