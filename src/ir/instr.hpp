#ifndef GECKO_IR_INSTR_HPP_
#define GECKO_IR_INSTR_HPP_

#include <cstdint>
#include <string>
#include <vector>

/**
 * @file
 * Instruction set of the GECKO mini-ISA.
 *
 * The ISA models a small FRAM-based microcontroller in the spirit of the
 * TI MSP430FR family used by the paper: 16 general-purpose 32-bit registers,
 * a word-addressed non-volatile main memory, memory-mapped I/O ports, and a
 * handful of ALU/branch opcodes.  Two pseudo-opcodes (`kBoundary`, `kCkpt`)
 * are emitted by the GECKO/Ratchet compiler pipelines and interpreted by the
 * intermittent-system runtime.
 */

namespace gecko::ir {

/** Register index. The ISA has 16 general purpose registers, r0..r15. */
using Reg = std::uint8_t;

/** Number of architectural general-purpose registers. */
inline constexpr int kNumRegs = 16;

/**
 * Link register used by kCall/kRet by convention.  A call writes the return
 * address to r15; ret jumps to r15.  Non-leaf callees must spill r15.
 */
inline constexpr Reg kLinkReg = 15;

/** Opcodes of the mini-ISA. */
enum class Opcode : std::uint8_t {
    kNop,
    /// rd = imm
    kMovi,
    /// rd = rs1
    kMov,
    // Binary ALU ops: rd = rs1 <op> (useImm ? imm : rs2)
    kAdd,
    kSub,
    kMul,
    /// Unsigned division; division by zero yields all-ones (0xffffffff).
    kDivu,
    /// Unsigned remainder; remainder by zero yields rs1.
    kRemu,
    kAnd,
    kOr,
    kXor,
    /// Logical shift left (shift amount masked to 5 bits).
    kShl,
    /// Logical shift right (shift amount masked to 5 bits).
    kShr,
    // Unary ALU ops: rd = <op> rs1
    kNot,
    kNeg,
    /// rd = mem[rs1 + imm] (word addressed)
    kLoad,
    /// mem[rs1 + imm] = rs2
    kStore,
    // Conditional branches: if (rs1 <cond> rs2) goto label(target)
    kBeq,
    kBne,
    /// Signed less-than branch.
    kBlt,
    /// Signed greater-or-equal branch.
    kBge,
    /// Unsigned less-than branch.
    kBltu,
    /// Unsigned greater-or-equal branch.
    kBgeu,
    /// Unconditional jump to label(target).
    kJmp,
    /// r15 = return address; goto label(target).
    kCall,
    /// goto r15.
    kRet,
    /// rd = next value from input port `imm` (replay-consistent, see Machine).
    kIn,
    /// emit rs1 to output port `imm` (exactly-once, see Machine).
    kOut,
    /// Stop the program; the run is complete.
    kHalt,
    /**
     * Compiler pseudo-op: idempotent region boundary.  `imm` holds the
     * static region id entered at this point.  The runtime commits staged
     * I/O state and records the region entry PC here.
     */
    kBoundary,
    /**
     * Compiler pseudo-op: checkpoint store.  Saves register `rs1` into the
     * double-buffered compiler checkpoint storage at slot colour `imm`
     * (0 or 1) for region id `target`.
     */
    kCkpt,
};

/** Total number of opcodes (for table sizing). */
inline constexpr int kNumOpcodes = static_cast<int>(Opcode::kCkpt) + 1;

/**
 * One decoded instruction.
 *
 * Field usage depends on the opcode; unused fields are zero.  Branch/jump
 * targets are *label ids* (indices into Program's label table), never raw
 * instruction indices, so that compiler passes can insert instructions
 * without rewriting every branch.
 */
struct Instr {
    Opcode op = Opcode::kNop;
    /// Destination register.
    Reg rd = 0;
    /// First source register.
    Reg rs1 = 0;
    /// Second source register (binary ALU with useImm == false, kStore data).
    Reg rs2 = 0;
    /// If true, binary ALU ops use `imm` instead of rs2.
    bool useImm = false;
    /// Immediate operand (kMovi value, address offset, port, slot colour).
    std::int32_t imm = 0;
    /// Label id for branches/jumps/calls; region id for kCkpt.
    std::int32_t target = -1;

    bool operator==(const Instr&) const = default;
};

/** @return true if `op` is a conditional branch. */
bool isCondBranch(Opcode op);

/** @return true if `op` unconditionally transfers control (jmp/call/ret/halt). */
bool isUncondTransfer(Opcode op);

/** @return true if `op` ends a basic block. */
bool isTerminator(Opcode op);

/** @return true if `op` transfers control to a label (branches, jmp, call). */
bool hasLabelTarget(Opcode op);

/** @return true if `op` is a binary ALU operation (rd = rs1 op rs2/imm). */
bool isBinaryAlu(Opcode op);

/** @return true if `op` is a unary ALU operation (rd = op rs1). */
bool isUnaryAlu(Opcode op);

/** @return true if the instruction writes a general purpose register. */
bool writesReg(const Instr& ins);

/** @return the registers read by `ins` (at most 2 plus link for kRet). */
std::vector<Reg> regsRead(const Instr& ins);

/** @return mnemonic text for an opcode, e.g. "add". */
const char* mnemonic(Opcode op);

/**
 * Evaluate a binary ALU opcode on two operand values.
 *
 * The single definition of the ALU rules (division by zero yields
 * all-ones, remainder by zero yields `a`, shifts mask the amount to 5
 * bits, all arithmetic wraps modulo 2^32), shared by every execution
 * tier and the compiler's constant folder.  A call with a constant `op`
 * folds to the bare operation, which is why the block tier's dispatch
 * keeps one case per opcode.
 */
constexpr std::uint32_t
evalBinary(Opcode op, std::uint32_t a, std::uint32_t b)
{
    switch (op) {
      case Opcode::kAdd: return a + b;
      case Opcode::kSub: return a - b;
      case Opcode::kMul: return a * b;
      case Opcode::kDivu: return b == 0 ? 0xffffffffu : a / b;
      case Opcode::kRemu: return b == 0 ? a : a % b;
      case Opcode::kAnd: return a & b;
      case Opcode::kOr: return a | b;
      case Opcode::kXor: return a ^ b;
      case Opcode::kShl: return a << (b & 31u);
      case Opcode::kShr: return a >> (b & 31u);
      default: return 0;
    }
}

/** Evaluate a unary ALU opcode (kNot/kNeg). */
constexpr std::uint32_t
evalUnary(Opcode op, std::uint32_t a)
{
    switch (op) {
      case Opcode::kNot: return ~a;
      case Opcode::kNeg: return 0u - a;
      default: return 0;
    }
}

/**
 * Evaluate a conditional-branch predicate (kBlt/kBge compare signed,
 * kBltu/kBgeu unsigned).
 * @return true if the branch is taken.
 */
constexpr bool
evalBranch(Opcode op, std::uint32_t a, std::uint32_t b)
{
    switch (op) {
      case Opcode::kBeq: return a == b;
      case Opcode::kBne: return a != b;
      case Opcode::kBlt:
        return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
      case Opcode::kBge:
        return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
      case Opcode::kBltu: return a < b;
      case Opcode::kBgeu: return a >= b;
      default: return false;
    }
}

/**
 * Architectural cycle cost of one instruction.
 *
 * The table approximates an MSP430FR-class MCU: single-cycle ALU, a
 * multi-cycle hardware multiplier, slow software-assisted division, and
 * FRAM wait states on loads/stores.  Pseudo-ops cost what the runtime
 * work they stand for costs (one or two NVM stores).
 */
int cycleCost(const Instr& ins);

}  // namespace gecko::ir

#endif  // GECKO_IR_INSTR_HPP_
