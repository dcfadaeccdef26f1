#ifndef GECKO_SIM_SUPERBLOCK_HPP_
#define GECKO_SIM_SUPERBLOCK_HPP_

#include <cstdint>

#include "ir/instr.hpp"

/**
 * @file
 * Data structures of the block-compiled execution tier.
 *
 * The block backend partitions the predecoded program into straight-line
 * superblocks (leaders supplied by compiler::superblockLeaders, so a
 * block never spans a region commit point), profiles block entries in
 * the dispatch loop, and promotes hot blocks into micro-op (`Uop`)
 * streams executed as threaded code — one indirect jump per micro-op,
 * with cycle/instruction accounting hoisted to block granularity and
 * adjacent instruction pairs fused into superinstructions (loop latches,
 * the masked-window address pattern).  See sim/exec_block.cpp for the
 * executor and DESIGN.md §12 for the equivalence argument.
 */

namespace gecko::sim {

/**
 * Micro-op kinds.  Specialized by operand form (register/immediate) and
 * by I/O staging mode so the executor never re-tests `useImm` or the
 * staging flag per op; the staging specialization is why setStagedIo()
 * invalidates compiled blocks.  Order matters: the RR/RI ALU groups and
 * the branch groups mirror the contiguous ir::Opcode enums, and the
 * executor's handler table is indexed by this enum.
 */
enum class UopKind : std::uint8_t {
    kNop,
    kMovi,
    kMov,
    kNot,
    kNeg,
    // Binary ALU, register form (order = ir::Opcode kAdd..kShr).
    kAddRR,
    kSubRR,
    kMulRR,
    kDivuRR,
    kRemuRR,
    kAndRR,
    kOrRR,
    kXorRR,
    kShlRR,
    kShrRR,
    // Binary ALU, immediate form (shift immediates pre-masked).
    kAddRI,
    kSubRI,
    kMulRI,
    kDivuRI,
    kRemuRI,
    kAndRI,
    kOrRI,
    kXorRI,
    kShlRI,
    kShrRI,
    kLoad,   ///< aux = instr index in block (fault accounting)
    kStore,  ///< aux = instr index in block
    // I/O, specialized on the staging mode active at compile time.
    kInStaged,
    kInDirect,
    kOutStaged,
    kOutDirect,
    kBoundaryStaged,  ///< imm = region id
    kBoundaryPlain,
    kCkpt,   ///< rs1 = register, imm = slot colour
    kBadIo,  ///< statically invalid port: always faults (aux = idx)
    /**
     * Fused window-address pattern `and rT,rS,#m ; add rD,rT,#b`:
     * rs1 = rS, imm = m, rs2 = rT, rd = rD, aux = b.
     */
    kAndiAddi,
    /**
     * Corpus-selected ALU pairs: the second op consumes the first's
     * destination (`op1 rT,rS,x ; op2 rD,rT,y`).  Both destinations are
     * written, so dataflow is exactly the sequential execution's.
     * Fields: rd/rs1/imm = op1; rd2 = op2 dest, rx/imm2 = op2 source.
     * Selected by profiling the benchmark corpus (see DESIGN.md §12);
     * these four cover the hot loop bodies of the workload suite.
     */
    kMulRIAddRI,  ///< mul rT,rS,#a ; add rD,rT,#b
    kShrRIXorRR,  ///< shr rT,rS,#a ; xor rD,rT,rX
    kAndRIShrRI,  ///< and rT,rS,#a ; shr rD,rT,#b (b pre-masked)
    kAndRIAddRR,  ///< and rT,rS,#a ; add rD,rT,rX
    kMulRIAddRR,  ///< mul rT,rS,#a ; add rD,rT,rX
    kAndRIXorRR,  ///< and rT,rS,#a ; xor rD,rT,rX
    kMoviAddRR,   ///< movi rT,#a ; add rD,rT,rX
    /**
     * Fused address-generation load `add rT,rA,rB ; load rD,[rT+#o]`:
     * rd/rs1/rs2 = the add, rd2 = load dest, imm2 = o.  Faultable: aux
     * and costPrefix are the load's, and the add's destination is
     * written before the bounds check, so a fault leaves exactly the
     * per-instruction architectural state.
     */
    kAddRRLoad,
    /**
     * Second-level address-materialization fusions: the kMoviAddRR pair
     * (one register carrying both the movi and the add, the common
     * base-plus-index idiom) feeding an offset-0-style access.  Fields:
     * rd = address register, rx = index source, imm = base, imm2 =
     * access offset; kMoviAddLoad: rd2 = load dest; kMoviAddStore:
     * rs2 = stored register.  Faultable like kAddRRLoad: aux and
     * costPrefix are the access's, and the address register is written
     * before the bounds check.
     */
    kMoviAddLoad,
    kMoviAddStore,
    /**
     * Two adjacent checkpoint slot stores (region entries checkpoint
     * every live register in one run): rs1/imm = first reg/slot,
     * rd2/imm2 = second reg/slot.  Never faults.
     */
    kCkptCkpt,
    // ---- Terminators: always the last uop of a compiled block. ----
    // Conditional branches (order = ir::Opcode kBeq..kBgeu);
    // aux = taken-target pc, fall-through = block start + len.
    kBeq,
    kBne,
    kBlt,
    kBge,
    kBltu,
    kBgeu,
    kJmp,          ///< aux = target pc
    kCall,         ///< aux = target pc, imm = link value (call pc + 1)
    kRet,          ///< aux = instr index in block (fault accounting)
    kHalt,
    kFallThrough,  ///< synthetic: block ends at a leader; aux = next pc
    /**
     * Fused loop latches `add/sub rD,rS,#i ; b<cc> rD,rB,target`:
     * rd = rD, rs1 = rS, imm = i, rs2 = rB, aux = taken-target pc.
     */
    kAddiBeq,
    kAddiBne,
    kAddiBlt,
    kAddiBge,
    kAddiBltu,
    kAddiBgeu,
    kSubiBeq,
    kSubiBne,
    kSubiBlt,
    kSubiBge,
    kSubiBltu,
    kSubiBgeu,
    /**
     * Latch triples: one ALU op feeding a self-updating counted latch
     * (`op rD,...; add rC,rC,#i ; blt rC,rB,target`).  Only formed when
     * the latch increments its own counter (rC = rC + i), which is what
     * the workload builders emit.  Fields: rd/rs1/rs2/imm = leading op;
     * rd2 = rC, imm2 = i, rx = rB, aux = taken-target pc.
     */
    kAddRRAddiBlt,
    kShrRIAddiBlt,
    kMoviFall,   ///< movi rD,#a then fall through (aux = next pc)
    kAddRIJmp,   ///< add rD,rS,#a then jmp (aux = target pc)
    /**
     * Loop superinstructions: a whole hot self-loop collapsed into one
     * micro-op that runs natively for as many iterations as the cycle
     * budget (and the loop's own counted exit) allow.  Only formed for
     * pure-ALU bodies — no loads/stores/IO/trace/fault sites — so a
     * batch of k iterations is observationally identical to k threaded
     * passes; the budget bound keeps quantum stop points exact.
     *
     * kLcgAccLoop: `s = s*K + C ; t = s>>sh ; s ^= t ; acc += s` under
     * an addi/blt counted latch.  Fields: rd = s, rs1 = t, rs2 = acc,
     * rd2 = counter, rx = bound, imm = K, imm2 = C, aux = sh.
     *
     * kCrcBitLoop: the three-block cycle `and rA,rS,#1 ; shr rS,rS,#1 ;
     * beq rA,rZ,+2 ; xor rS,rS,#P ; sub rC,rC,#1 ; bne rC,rZ2,start`
     * (the CRC16/CRC32 bit loop).  Fields: rd = rA, rs1 = rS, rs2 = rC,
     * rd2 = rZ, rx = rZ2, imm = P, imm2/aux = taken/not-taken cycles
     * per iteration.
     */
    kLcgAccLoop,
    kCrcBitLoop,
    /**
     * kFirMacLoop: the FIR multiply-accumulate inner loop
     * `i = (s - t) & m ; x = ring[i] ; y = taps[t] ; acc += x*y` under
     * an addi/blt counted latch — the hot body of the I/O benchmark.
     * Unlike the pure-ALU loop superinstructions it contains two loads,
     * so each iteration bounds-checks both addresses; a failing check
     * commits only the completed iterations and re-runs the faulting
     * one through the per-instruction fallback, which faults at the
     * exact instruction with exact architectural state.  Fields:
     * rd = acc, rs1 = s (read-only sample index), rs2 = i, rd2 = t
     * (loop counter), rx = bound (read-only), imm = ring base,
     * aux = taps base, imm2 = addr-reg | x-reg<<8 | y-reg<<16 |
     * mask<<24 (mask must fit 8 bits).
     */
    kFirMacLoop,
    kNumUopKinds_,
};

inline constexpr int kNumUopKinds = static_cast<int>(UopKind::kNumUopKinds_);

/** One micro-op of a compiled superblock (see UopKind for field use). */
struct Uop {
    /// Threaded-code dispatch target; patched lazily inside the
    /// executor (label addresses are only visible there).
    const void* handler = nullptr;
    std::uint32_t imm = 0;
    std::uint32_t aux = 0;
    /// Block cycles up to and including this micro-op's instruction(s):
    /// exact per-instruction accounting on the fault path without
    /// per-op counter updates on the hot path.
    std::uint32_t costPrefix = 0;
    /// Second immediate of a fused ALU pair / latch triple.
    std::uint32_t imm2 = 0;
    UopKind kind = UopKind::kNop;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    /// Fused second-op destination and extra source register.
    std::uint8_t rd2 = 0;
    std::uint8_t rx = 0;
};

/**
 * Steady-loop fast-forward's latch count (exec_block.cpp): how many of
 * the next iterations, at most `cap`, take the latch `branch` whose
 * counter operand — the left one if `counterLhs` — has just taken it
 * at value `counter` and moves by `step` (mod 2^32) per iteration
 * against the fixed `bound`.  Exact in the compare's signed or unsigned
 * 32-bit order, with wrap-around.
 */
std::uint64_t steadyLatchRun(ir::Opcode branch, bool counterLhs,
                             std::uint32_t counter, std::uint32_t step,
                             std::uint32_t bound, std::uint64_t cap);

/** SuperBlock::steadyCounter of a block that is no steady-loop candidate. */
inline constexpr std::uint8_t kNoSteadyCounter = 0xff;

/**
 * One straight-line superblock of the predecoded program.  Compiled
 * micro-ops live in the machine's flattened arena (one contiguous pool
 * for every block), addressed by the [uopStart, uopStart + uopCount)
 * slice — block-to-block chaining walks a single allocation instead of
 * hopping between per-block heap vectors.
 */
struct SuperBlock {
    std::uint32_t start = 0;      ///< first instruction index
    std::uint32_t len = 0;        ///< instructions covered (≥ 1)
    std::uint32_t cost = 0;       ///< total architectural cycles
    std::uint32_t execCount = 0;  ///< profile counter (pre-promotion)
    std::uint32_t uopStart = 0;   ///< first micro-op in the arena pool
    std::uint32_t uopCount = 0;   ///< micro-ops in this block's slice
    /// Steady-loop fast-forward (exec_block.cpp): the counter's
    /// per-iteration step (mod 2^32) of a register-only counted
    /// self-loop, decided at compile time.
    std::uint32_t steadyStep = 0;
    /// That loop's counter register, or kNoSteadyCounter.
    std::uint8_t steadyCounter = kNoSteadyCounter;
    bool compiled = false;        ///< arena slice valid
    bool threaded = false;        ///< handler pointers patched
};

/** Block entries observed before promotion to compiled micro-ops. */
inline constexpr std::uint32_t kHotThreshold = 4;

}  // namespace gecko::sim

#endif  // GECKO_SIM_SUPERBLOCK_HPP_
