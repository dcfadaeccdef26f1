#include <algorithm>

#include "compiler/block_metadata.hpp"
#include "sim/machine.hpp"
#include "trace/trace.hpp"

/**
 * @file
 * The block-compiled execution tier (ExecBackend::kBlock).
 *
 * Three ideas, stacked:
 *
 *  1. *Superblocks.*  The predecoded program is partitioned into
 *     straight-line blocks at compiler::superblockLeaders boundaries
 *     (CFG leaders + region entry sequences).  Block entries are
 *     profiled in the dispatch loop; at kHotThreshold entries a block
 *     is compiled into a micro-op stream.
 *
 *  2. *Threaded superinstructions.*  Compiled blocks execute as
 *     threaded code — each micro-op ends in an indirect `goto` to the
 *     next handler — with operand forms (imm/reg), I/O staging mode and
 *     shift masks specialized at compile time, and common pairs (loop
 *     latches, the masked-window address pattern) fused into single
 *     handlers.  Cycle/instruction accounting happens once per block,
 *     not per op; each micro-op carries its cost prefix so the fault
 *     path can reconstruct exact per-instruction counts.
 *
 *  3. *Precise deoptimization.*  A block runs threaded only when its
 *     whole worst-case cost fits the remaining cycle budget
 *     (`cycles + cost <= budget`).  Since the budget is the energy- and
 *     clock-bounded quantum computed by the intermittent simulator
 *     (Capacitor::affordableCycles), this entry guard is exactly the
 *     conservative block-entry energy check: a superblock can never run
 *     past the point where the capacitor could cross an armed
 *     threshold.  Budget tails, cold blocks, and mid-block entry PCs
 *     (JIT-checkpoint image restores land anywhere) fall back to a
 *     per-instruction interpreter over the predecoded program
 *     (stepDecoded) that re-enters block dispatch after every
 *     instruction — so a quantum that stopped mid-block realigns to the
 *     next leader within a few instructions instead of losing the whole
 *     following quantum.  Every architectural event — faults, halts,
 *     commits, trace events — happens at the same instruction with the
 *     same counters as the step tier.  machine_test and fuzz_test assert
 *     this equivalence.
 *
 *  4. *Completion replay.*  In continuous mode an `in`-free program's
 *     completion is a pure function of the restart state (pc 0,
 *     registers zeroed, no staged I/O pending) and of the NVM words it
 *     reads before writing them.  At a restart the tier records the
 *     next whole completion once on stepDecoded — its live-in words,
 *     the final value of every word and checkpoint slot it writes, its
 *     region commits, its `out` sequence and its counters — and from
 *     then on applies that effect in place of execution at every
 *     restart whose live-ins still hold and whose budget covers the
 *     recorded cycles.  A recording starts only when the last whole
 *     completion of the current run fits the remaining budget, and is
 *     dropped at run end or on a fault; a live-in miss drops the record,
 *     and after kMaxReplayMisses misses the machine stops recording.
 *     Replay is off under a trace buffer (it emits no events), and the
 *     step tier never replays: it stays the reference.
 *
 *  5. *Steady-loop fast-forward.*  compileBlock marks a block as a
 *     candidate when it is a register-only counted self-loop: it ends
 *     in a conditional branch to its own start, its counter c is
 *     written only by one `addi/subi c,c,#k` (k ≠ 0) and read only by
 *     that update and the branch, and every other instruction is a
 *     register-only ALU op.  The other written registers are then a
 *     function of themselves and of registers the block never writes,
 *     so once one iteration leaves them all unchanged, every later
 *     iteration is that same iteration: the tier applies the next n at
 *     once (c += n·k, instrs += n·len, cycles += n·cost), n being the
 *     largest count whose iterations all pass the block-entry budget
 *     guard and take the latch (computed exactly in the compare's
 *     32-bit order, with wrap-around), and resumes normal dispatch for
 *     the exit or budget tail.  The check stays off the hot back edge,
 *     which keeps its one compare: a self-loop chains up to a cycle
 *     limit instead of the budget, and the first iteration past it
 *     probes — at a candidate it snapshots the registers and compares
 *     them at the next back edge.  The first probe comes
 *     kSteadyArmCycles into a run and a failed one doubles the
 *     interval, so an ordinary loop pays a logarithmic number of
 *     probes per run.  The kCrcBitLoop handler applies the same rule
 *     to the CRC LFSR's fixed point, checked once per entry that has
 *     more than kCrcSteadyArmIters iterations left.  A register-only
 *     body emits no trace event, so the fast-forward stays on under a
 *     trace buffer; nothing is kept across runs, and the step tier
 *     never fast-forwards.
 *
 * The ALU and branch rules are not restated here: stepDecoded and the
 * micro-op handlers call ir::evalBinary/evalUnary/evalBranch with a
 * constant opcode, which folds to the bare operation.  The executor is
 * GNU computed-goto threaded code, which every compiler that builds the
 * library (GCC, Clang) supports.
 */

namespace gecko::sim {

using ir::Opcode;

namespace {

/** Binary-ALU micro-op kind (relies on matching enum layouts). */
UopKind
aluKind(Opcode op, bool useImm)
{
    const int base =
        static_cast<int>(useImm ? UopKind::kAddRI : UopKind::kAddRR);
    return static_cast<UopKind>(base + (static_cast<int>(op) -
                                        static_cast<int>(Opcode::kAdd)));
}

/** Conditional-branch terminator kind. */
UopKind
branchKind(Opcode op)
{
    return static_cast<UopKind>(static_cast<int>(UopKind::kBeq) +
                                (static_cast<int>(op) -
                                 static_cast<int>(Opcode::kBeq)));
}

/** Fused latch kind for `add/sub rd,rs,#imm ; b<cc> rd,rb,target`. */
UopKind
latchKind(Opcode alu, Opcode branch)
{
    const int base = static_cast<int>(
        alu == Opcode::kAdd ? UopKind::kAddiBeq : UopKind::kSubiBeq);
    return static_cast<UopKind>(base + (static_cast<int>(branch) -
                                        static_cast<int>(Opcode::kBeq)));
}

bool
isTerminatorKind(UopKind kind)
{
    return kind >= UopKind::kBeq;
}

/// Live-in misses after which a machine stops recording completions
/// (each recording costs one completion on the per-instruction path).
constexpr std::uint32_t kMaxReplayMisses = 3;

/// Not seen yet in the current run (as a length, no budget fits it).
constexpr std::uint64_t kNone = ~std::uint64_t{0};

/// Cycles of a run before its first steady-loop probe; the interval
/// doubles after each failed probe.
constexpr std::uint64_t kSteadyArmCycles = 64;

/// Iterations a kCrcBitLoop entry must have left to check for the
/// LFSR's fixed point (a byte's natural loop runs 8).
constexpr std::uint32_t kCrcSteadyArmIters = 32;

/// 2^32: the period of a 32-bit counter.
constexpr std::uint64_t kWordSpan = std::uint64_t{1} << 32;

/** Register-only ALU op (no memory, I/O, pseudo-op or control flow). */
bool
isRegisterOnly(Opcode op)
{
    return op == Opcode::kNop || op == Opcode::kMovi ||
           op == Opcode::kMov || ir::isUnaryAlu(op) || ir::isBinaryAlu(op);
}

/**
 * The counter values for which a latch `c <op> bound` (`bound <op> c`
 * when the counter is the right operand) is taken, as the cyclic
 * interval of `len` values starting at `lo`.  Signed orders start at
 * INT32_MIN's bit pattern, where `x ^ 0x80000000` ranks them unsigned.
 */
struct TakenSet {
    std::uint32_t lo;
    std::uint64_t len;
};

TakenSet
takenSet(Opcode op, bool counterLhs, std::uint32_t bound)
{
    constexpr std::uint32_t kIntMin = 0x80000000u;
    const std::uint64_t rank = bound;                // unsigned rank
    const std::uint64_t srank = bound ^ kIntMin;     // signed rank
    switch (op) {
      case Opcode::kBeq:
        return {bound, 1};
      case Opcode::kBne:
        return {bound + 1, kWordSpan - 1};
      case Opcode::kBltu:  // c < bound, or bound < c
        return counterLhs ? TakenSet{0, rank}
                          : TakenSet{bound + 1, kWordSpan - 1 - rank};
      case Opcode::kBgeu:  // c >= bound, or bound >= c
        return counterLhs ? TakenSet{bound, kWordSpan - rank}
                          : TakenSet{0, rank + 1};
      case Opcode::kBlt:
        return counterLhs ? TakenSet{kIntMin, srank}
                          : TakenSet{bound + 1, kWordSpan - 1 - srank};
      case Opcode::kBge:
        return counterLhs ? TakenSet{bound, kWordSpan - srank}
                          : TakenSet{kIntMin, srank + 1};
      default:
        return {0, 0};
    }
}

}  // namespace

std::uint64_t
steadyLatchRun(Opcode branch, bool counterLhs, std::uint32_t c,
               std::uint32_t step, std::uint32_t bound, std::uint64_t cap)
{
    // Walk the taken set's cyclic interval, shifted to start at 0.  A
    // step may jump over the exit values and wrap round into it again.
    const TakenSet taken = takenSet(branch, counterLhs, bound);
    if (taken.len == kWordSpan)
        return cap;
    const std::int64_t len = static_cast<std::int64_t>(taken.len);
    const std::int64_t s = static_cast<std::int32_t>(step);
    const std::int64_t span = static_cast<std::int64_t>(kWordSpan);
    std::int64_t pos = static_cast<std::uint32_t>(c - taken.lo);
    std::uint64_t n = 0;
    while (pos < len && n < cap) {
        // Steps that stay inside without wrapping.
        const std::int64_t room = s > 0 ? len - 1 - pos : pos;
        const auto inside = static_cast<std::uint64_t>(room / (s > 0 ? s : -s));
        if (inside >= cap - n)
            return cap;
        n += inside;
        pos += s * static_cast<std::int64_t>(inside);
        // The next step leaves the interval; only a wrap round the
        // 2^32 circle can land it back inside.
        const std::int64_t next = pos + s;
        if (next >= 0 && next < span)
            return n;
        pos = next < 0 ? next + span : next - span;
        if (pos >= len)
            return n;
        ++n;
    }
    return n;
}

void
Machine::ensureBlocks()
{
    if (blocksBuilt_)
        return;
    blocksBuilt_ = true;
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    if (size == 0)
        return;
    std::vector<std::uint32_t> leaders = compiler::superblockLeaders(*prog_);
    blocks_.clear();
    blocks_.reserve(leaders.size());
    blockAt_.assign(size, 0);
    for (std::size_t i = 0; i < leaders.size(); ++i) {
        SuperBlock b;
        b.start = leaders[i];
        const std::uint32_t end =
            i + 1 < leaders.size() ? leaders[i + 1] : size;
        b.len = end - b.start;
        for (std::uint32_t pc = b.start; pc < end; ++pc) {
            b.cost += decoded_[pc].cost;
            blockAt_[pc] = static_cast<std::uint32_t>(blocks_.size());
        }
        blocks_.push_back(std::move(b));
    }
}

void
Machine::invalidateBlockCache()
{
    for (SuperBlock& b : blocks_) {
        b.compiled = false;
        b.threaded = false;
        b.execCount = 0;
        b.uopStart = 0;
        b.uopCount = 0;
    }
    uopPool_.clear();
    uopPool_.shrink_to_fit();
    recordReady_ = false;
    replayMisses_ = 0;
}

void
Machine::compileBlock(SuperBlock& b)
{
    const Decoded* code = decoded_.data();
    const bool staged = stagedIo_;
    std::vector<Uop>& uops = uopScratch_;
    uops.clear();
    uops.reserve(b.len + 1);
    std::uint32_t prefix = 0;
    std::uint32_t i = 0;
    while (i < b.len) {
        const Decoded& d = code[b.start + i];
        Uop u;
        u.rd = d.rd;
        u.rs1 = d.rs1;
        u.rs2 = d.rs2;
        u.imm = d.imm;
        u.aux = i;  // default: own index, for exact fault accounting
        prefix += d.cost;
        u.costPrefix = prefix;
        switch (d.op) {
          case Opcode::kNop:
            u.kind = UopKind::kNop;
            break;
          case Opcode::kMovi:
            u.kind = UopKind::kMovi;
            break;
          case Opcode::kMov:
            u.kind = UopKind::kMov;
            break;
          case Opcode::kNot:
            u.kind = UopKind::kNot;
            break;
          case Opcode::kNeg:
            u.kind = UopKind::kNeg;
            break;
          case Opcode::kLoad:
            u.kind = UopKind::kLoad;
            break;
          case Opcode::kStore:
            u.kind = UopKind::kStore;
            break;
          case Opcode::kIn:
          case Opcode::kOut: {
            // Ports are immediates: validate once here instead of per
            // execution (kBadIo faults exactly like the other tiers).
            const int port = static_cast<std::int32_t>(d.imm);
            if (port < 0 || port >= kIoPorts)
                u.kind = UopKind::kBadIo;
            else if (d.op == Opcode::kIn)
                u.kind = staged ? UopKind::kInStaged : UopKind::kInDirect;
            else
                u.kind = staged ? UopKind::kOutStaged : UopKind::kOutDirect;
            break;
          }
          case Opcode::kBoundary:
            u.kind =
                staged ? UopKind::kBoundaryStaged : UopKind::kBoundaryPlain;
            break;
          case Opcode::kCkpt:
            u.kind = UopKind::kCkpt;
            break;
          case Opcode::kJmp:
            u.kind = UopKind::kJmp;
            u.aux = d.target;
            break;
          case Opcode::kCall:
            u.kind = UopKind::kCall;
            u.aux = d.target;
            u.imm = b.start + i + 1;  // link value
            break;
          case Opcode::kRet:
            u.kind = UopKind::kRet;
            break;
          case Opcode::kHalt:
            u.kind = UopKind::kHalt;
            break;
          default:
            if (ir::isCondBranch(d.op)) {
                u.kind = branchKind(d.op);
                u.aux = d.target;
                break;
            }
            // Binary ALU.  Latch fusion: an immediate add/sub feeding
            // the block's own conditional terminator becomes one
            // superinstruction (the inner-loop back edge).
            if ((d.op == Opcode::kAdd || d.op == Opcode::kSub) &&
                d.useImm && i + 2 == b.len) {
                const Decoded& t = code[b.start + i + 1];
                if (ir::isCondBranch(t.op) && t.rs1 == d.rd) {
                    prefix += t.cost;
                    u.kind = latchKind(d.op, t.op);
                    u.rs2 = t.rs2;
                    u.aux = t.target;
                    u.costPrefix = prefix;
                    uops.push_back(u);
                    i += 2;
                    continue;
                }
            }
            // Window-address fusion: `and rT,rS,#m ; add rD,rT,#b`
            // (the bounded load/store index idiom).
            if (d.op == Opcode::kAnd && d.useImm && i + 1 < b.len) {
                const Decoded& n = code[b.start + i + 1];
                if (n.op == Opcode::kAdd && n.useImm && n.rs1 == d.rd) {
                    prefix += n.cost;
                    u.kind = UopKind::kAndiAddi;
                    u.rs2 = d.rd;
                    u.rd = n.rd;
                    u.aux = n.imm;
                    u.costPrefix = prefix;
                    uops.push_back(u);
                    i += 2;
                    continue;
                }
            }
            u.kind = aluKind(d.op, d.useImm);
            // Shift amounts are masked to 5 bits by the ISA; bake the
            // mask into the immediate form.
            if (d.useImm &&
                (d.op == Opcode::kShl || d.op == Opcode::kShr))
                u.imm = d.imm & 31u;
            break;
        }
        uops.push_back(u);
        ++i;
    }
    // A block that ends at a leader (not at a terminator) falls through.
    if (uops.empty() || !isTerminatorKind(uops.back().kind)) {
        Uop u;
        u.kind = UopKind::kFallThrough;
        u.aux = b.start + b.len;
        u.costPrefix = prefix;
        uops.push_back(u);
    }
    // Corpus-selected superinstruction fusion (see superblock.hpp): one
    // greedy peephole pass merging chained ALU pairs and ALU+latch
    // triples.  A fused uop takes the second op's cost prefix, and
    // fusion never renumbers instructions, so the fault path's exact
    // per-instruction reconstruction is unchanged for every later uop.
    if (uops.size() >= 2) {
        std::vector<Uop> fused;
        fused.reserve(uops.size());
        std::size_t k = 0;
        while (k < uops.size()) {
            const Uop& a = uops[k];
            if (k + 1 < uops.size()) {
                const Uop& n = uops[k + 1];
                UopKind fk = UopKind::kNumUopKinds_;
                bool srcSwap = false;
                const bool leadsRI = a.kind == UopKind::kMulRI ||
                                     a.kind == UopKind::kAndRI ||
                                     a.kind == UopKind::kShrRI ||
                                     a.kind == UopKind::kMovi;
                if (leadsRI && n.rs1 == a.rd) {
                    if (a.kind == UopKind::kMulRI &&
                        n.kind == UopKind::kAddRI)
                        fk = UopKind::kMulRIAddRI;
                    else if (a.kind == UopKind::kShrRI &&
                             n.kind == UopKind::kXorRR)
                        fk = UopKind::kShrRIXorRR;
                    else if (a.kind == UopKind::kAndRI &&
                             n.kind == UopKind::kShrRI)
                        fk = UopKind::kAndRIShrRI;
                    else if (a.kind == UopKind::kAndRI &&
                             n.kind == UopKind::kAddRR)
                        fk = UopKind::kAndRIAddRR;
                    else if (a.kind == UopKind::kMulRI &&
                             n.kind == UopKind::kAddRR)
                        fk = UopKind::kMulRIAddRR;
                    else if (a.kind == UopKind::kAndRI &&
                             n.kind == UopKind::kXorRR)
                        fk = UopKind::kAndRIXorRR;
                    else if (a.kind == UopKind::kMovi &&
                             n.kind == UopKind::kAddRR)
                        fk = UopKind::kMoviAddRR;
                } else if (leadsRI && n.rs2 == a.rd) {
                    // xor/add are commutative, so a pair whose second op
                    // consumes the fused value through rs2 folds the
                    // same way with its sources swapped.
                    if (a.kind == UopKind::kShrRI &&
                        n.kind == UopKind::kXorRR) {
                        fk = UopKind::kShrRIXorRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kAndRI &&
                               n.kind == UopKind::kAddRR) {
                        fk = UopKind::kAndRIAddRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kMulRI &&
                               n.kind == UopKind::kAddRR) {
                        fk = UopKind::kMulRIAddRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kAndRI &&
                               n.kind == UopKind::kXorRR) {
                        fk = UopKind::kAndRIXorRR;
                        srcSwap = true;
                    } else if (a.kind == UopKind::kMovi &&
                               n.kind == UopKind::kAddRR) {
                        fk = UopKind::kMoviAddRR;
                        srcSwap = true;
                    }
                }
                if (fk == UopKind::kNumUopKinds_) {
                    if (a.kind == UopKind::kAddRR &&
                        n.kind == UopKind::kLoad && n.rs1 == a.rd)
                        fk = UopKind::kAddRRLoad;
                    else if (a.kind == UopKind::kMovi &&
                             n.kind == UopKind::kFallThrough)
                        fk = UopKind::kMoviFall;
                    else if (a.kind == UopKind::kAddRI &&
                             n.kind == UopKind::kJmp)
                        fk = UopKind::kAddRIJmp;
                }
                if (n.kind == UopKind::kAddiBlt && n.rd == n.rs1) {
                    if (a.kind == UopKind::kAddRR)
                        fk = UopKind::kAddRRAddiBlt;
                    else if (a.kind == UopKind::kShrRI)
                        fk = UopKind::kShrRIAddiBlt;
                }
                if (fk != UopKind::kNumUopKinds_) {
                    Uop f = a;
                    f.kind = fk;
                    f.rd2 = n.rd;
                    f.rx = srcSwap ? n.rs1 : n.rs2;
                    f.imm2 = n.imm;
                    f.aux = n.aux;
                    f.costPrefix = n.costPrefix;
                    fused.push_back(f);
                    k += 2;
                    continue;
                }
            }
            fused.push_back(a);
            ++k;
        }
        uops.swap(fused);
    }
    // Second combine pass over the fused stream: the base-plus-index
    // address pairs formed above feed the window-array loads/stores of
    // the pointer-chasing workloads, and checkpoint stores cluster at
    // region entries (every live register in one run) — both fold into
    // one more dispatch saving.  `rx != rd` keeps the index source
    // readable after the address register is written.
    if (uops.size() >= 2) {
        std::vector<Uop> fused;
        fused.reserve(uops.size());
        std::size_t k = 0;
        while (k < uops.size()) {
            const Uop& a = uops[k];
            if (k + 1 < uops.size()) {
                const Uop& n = uops[k + 1];
                UopKind fk = UopKind::kNumUopKinds_;
                if (a.kind == UopKind::kMoviAddRR && a.rd == a.rd2 &&
                    a.rx != a.rd && n.rs1 == a.rd &&
                    (n.kind == UopKind::kLoad || n.kind == UopKind::kStore))
                    fk = n.kind == UopKind::kLoad ? UopKind::kMoviAddLoad
                                                  : UopKind::kMoviAddStore;
                else if (a.kind == UopKind::kCkpt &&
                         n.kind == UopKind::kCkpt)
                    fk = UopKind::kCkptCkpt;
                if (fk != UopKind::kNumUopKinds_) {
                    Uop f = a;
                    f.kind = fk;
                    if (fk == UopKind::kMoviAddLoad)
                        f.rd2 = n.rd;
                    else if (fk == UopKind::kMoviAddStore)
                        f.rs2 = n.rs2;
                    else
                        f.rd2 = n.rs1;
                    f.imm2 = n.imm;
                    f.aux = n.aux;
                    f.costPrefix = n.costPrefix;
                    fused.push_back(f);
                    k += 2;
                    continue;
                }
            }
            fused.push_back(a);
            ++k;
        }
        uops.swap(fused);
    }
    // Loop superinstructions (DESIGN.md §12): a hot loop with a counted
    // exit whose body is pure ALU (LCG, CRC) or pure ALU plus two
    // bounds-checked loads (FIR) collapses into one micro-op that
    // iterates natively, bounded by the remaining cycle budget.
    // All written registers must be pairwise distinct and the read-only
    // bound registers must not alias them, so the native loop's final
    // register image matches per-uop execution exactly.
    const auto distinct = [](std::initializer_list<std::uint8_t> rs) {
        std::uint32_t seen = 0;
        for (std::uint8_t r : rs) {
            if (seen & (1u << r))
                return false;
            seen |= 1u << r;
        }
        return true;
    };
    if (uops.size() == 3 && uops[0].kind == UopKind::kMulRIAddRI &&
        uops[1].kind == UopKind::kShrRIXorRR &&
        uops[2].kind == UopKind::kAddRRAddiBlt) {
        const Uop& m = uops[0];
        const Uop& x = uops[1];
        const Uop& l = uops[2];
        const std::uint8_t s = m.rd;
        if (m.rs1 == s && m.rd2 == s && x.rs1 == s && x.rd2 == s &&
            x.rx == s && l.rs2 == s && l.rd == l.rs1 && l.imm2 == 1 &&
            l.aux == b.start &&
            distinct({s, x.rd, l.rd, l.rd2, l.rx})) {
            Uop f;
            f.kind = UopKind::kLcgAccLoop;
            f.rd = s;         // hash state
            f.rs1 = x.rd;     // shifted temporary
            f.rs2 = l.rd;     // accumulator
            f.rd2 = l.rd2;    // loop counter
            f.rx = l.rx;      // loop bound (read-only)
            f.imm = m.imm;    // multiplier
            f.imm2 = m.imm2;  // increment
            f.aux = x.imm;    // shift amount
            f.costPrefix = b.cost;
            uops.assign(1, f);
        }
    }
    if (b.len == 3 && b.start + 6 <= static_cast<std::uint32_t>(decoded_.size())) {
        const Decoded* d = code + b.start;
        if (d[0].op == Opcode::kAnd && d[0].useImm && d[0].imm == 1 &&
            d[1].op == Opcode::kShr && d[1].useImm &&
            (d[1].imm & 31u) == 1 && d[1].rd == d[1].rs1 &&
            d[1].rs1 == d[0].rs1 && d[2].op == Opcode::kBeq &&
            d[2].rs1 == d[0].rd && d[2].target == b.start + 4 &&
            d[3].op == Opcode::kXor && d[3].useImm &&
            d[3].rd == d[0].rs1 && d[3].rs1 == d[0].rs1 &&
            d[4].op == Opcode::kSub && d[4].useImm && d[4].imm == 1 &&
            d[4].rd == d[4].rs1 && d[5].op == Opcode::kBne &&
            d[5].rs1 == d[4].rd && d[5].target == b.start &&
            distinct({d[0].rd, d[0].rs1, d[4].rd}) &&
            distinct({d[2].rs2, d[0].rd, d[0].rs1, d[4].rd}) &&
            distinct({d[5].rs2, d[0].rd, d[0].rs1, d[4].rd})) {
            const std::uint32_t cTak =
                d[0].cost + d[1].cost + d[2].cost + d[4].cost + d[5].cost;
            Uop f;
            f.kind = UopKind::kCrcBitLoop;
            f.rd = d[0].rd;    // bit register
            f.rs1 = d[0].rs1;  // shift register
            f.rs2 = d[4].rd;   // bit counter
            f.rd2 = d[2].rs2;  // beq compare register (read-only)
            f.rx = d[5].rs2;   // bne compare register (read-only)
            f.imm = d[3].imm;  // polynomial
            f.imm2 = cTak;     // taken-path cycles per iteration
            f.aux = cTak + d[3].cost;  // not-taken-path cycles
            f.costPrefix = b.cost;
            uops.assign(1, f);
            // Worst-case single iteration: the block-entry budget guard
            // must cover a whole not-taken pass.
            b.cost = f.aux;
        }
    }
    if (uops.size() == 6 && uops[0].kind == UopKind::kSubRR &&
        uops[1].kind == UopKind::kAndRI &&
        uops[2].kind == UopKind::kMoviAddLoad &&
        uops[3].kind == UopKind::kMoviAddLoad &&
        uops[4].kind == UopKind::kMulRR &&
        uops[5].kind == UopKind::kAddRRAddiBlt) {
        const Uop& su = uops[0];  // sub rI,rS,rT
        const Uop& an = uops[1];  // and rI,rI,#m
        const Uop& l0 = uops[2];  // rA = ring + rI ; load rX,[rA+0]
        const Uop& l1 = uops[3];  // rA = taps + rT ; load rY,[rA+0]
        const Uop& mu = uops[4];  // mul rX,rX,rY
        const Uop& lt = uops[5];  // add rAcc,rAcc,rX ; rT+=1 ; blt
        if (an.rs1 == su.rd && an.rd == su.rd && (an.imm >> 8) == 0 &&
            l0.rx == su.rd && l0.imm2 == 0 && l1.rd == l0.rd &&
            l1.rx == su.rs2 && l1.imm2 == 0 && mu.rd == l0.rd2 &&
            mu.rs1 == l0.rd2 && mu.rs2 == l1.rd2 && lt.rd == lt.rs1 &&
            lt.rs2 == mu.rd && lt.rd2 == su.rs2 && lt.imm2 == 1 &&
            lt.aux == b.start &&
            distinct({su.rd, l0.rd, l0.rd2, l1.rd2, lt.rd, lt.rd2}) &&
            distinct({su.rs1, lt.rx, su.rd, l0.rd, l0.rd2, l1.rd2, lt.rd,
                      lt.rd2})) {
            Uop f;
            f.kind = UopKind::kFirMacLoop;
            f.rd = lt.rd;          // accumulator
            f.rs1 = su.rs1;        // sample index (read-only)
            f.rs2 = su.rd;         // masked ring index
            f.rd2 = lt.rd2;        // loop counter
            f.rx = lt.rx;          // loop bound (read-only)
            f.imm = l0.imm;        // ring base
            f.aux = l1.imm;        // taps base
            f.imm2 = static_cast<std::uint32_t>(l0.rd) |
                     (static_cast<std::uint32_t>(l0.rd2) << 8) |
                     (static_cast<std::uint32_t>(l1.rd2) << 16) |
                     (an.imm << 24);
            f.costPrefix = b.cost;
            uops.assign(1, f);
        }
    }
    b.uopStart = static_cast<std::uint32_t>(uopPool_.size());
    b.uopCount = static_cast<std::uint32_t>(uops.size());
    uopPool_.insert(uopPool_.end(), uops.begin(), uops.end());
    b.compiled = true;
    b.threaded = false;
    // A hand loop superinstruction runs its whole loop natively, so it
    // never reaches a back edge; kCrcBitLoop fast-forwards itself.
    b.steadyCounter = kNoSteadyCounter;
    if (uops.back().kind < UopKind::kLcgAccLoop)
        markSteadyLoop(b);
}

void
Machine::markSteadyLoop(SuperBlock& b) const
{
    if (b.len < 2)
        return;
    const Decoded* code = decoded_.data() + b.start;
    const Decoded& latch = code[b.len - 1];
    if (!ir::isCondBranch(latch.op) || latch.target != b.start ||
        latch.rs1 == latch.rs2)
        return;
    for (std::uint32_t i = 0; i + 1 < b.len; ++i)
        if (!isRegisterOnly(code[i].op))
            return;
    // The counter is the latch operand written only by its own
    // immediate add/sub and read by nothing else in the body.
    for (const std::uint8_t c : {latch.rs1, latch.rs2}) {
        int updates = 0;
        bool clean = true;
        std::uint32_t step = 0;
        for (std::uint32_t i = 0; i + 1 < b.len && clean; ++i) {
            const ir::Instr& ins = prog_->prog.at(b.start + i);
            const bool writes = ir::writesReg(ins) && ins.rd == c;
            const std::vector<ir::Reg> read = ir::regsRead(ins);
            const bool reads =
                std::find(read.begin(), read.end(), c) != read.end();
            const bool update =
                writes && (ins.op == Opcode::kAdd || ins.op == Opcode::kSub) &&
                ins.useImm && ins.rs1 == c && ins.imm != 0;
            if (update) {
                ++updates;
                const auto k = static_cast<std::uint32_t>(ins.imm);
                step = ins.op == Opcode::kAdd ? k : 0u - k;
            } else if (writes || reads) {
                clean = false;
            }
        }
        if (!clean || updates != 1)
            continue;
        if (b.steadyCounter != kNoSteadyCounter) {
            // Both operands count: the bound is never steady.
            b.steadyCounter = kNoSteadyCounter;
            return;
        }
        b.steadyCounter = c;
        b.steadyStep = step;
    }
}

std::uint64_t
Machine::steadyProbe(SteadyProbe& probe, const SuperBlock& b,
                     std::uint64_t budget, std::uint64_t& cycles,
                     std::uint64_t& instrs)
{
    const std::uint8_t c = b.steadyCounter;
    if (probe.block == &b && instrs - probe.instrs == b.len) {
        // Exactly one iteration since the snapshot: steady if it left
        // every register but the counter as it found it.
        std::array<std::uint32_t, 16> now = regs_;
        now[c] = probe.regs[c];
        if (now == probe.regs) {
            const Decoded& latch = decoded_[b.start + b.len - 1];
            const bool counterLhs = latch.rs1 == c;
            // Iterations passing the block-entry guard, then those of
            // them that take the latch.
            const std::uint64_t fit = (budget - cycles) / b.cost;
            const std::uint64_t n = steadyLatchRun(
                latch.op, counterLhs, regs_[c], b.steadyStep,
                regs_[counterLhs ? latch.rs2 : latch.rs1], fit);
            regs_[c] += static_cast<std::uint32_t>(n) * b.steadyStep;
            cycles += n * b.cost;
            instrs += n * b.len;
            steadyIters_ += n;
            probe.block = nullptr;
            return cycles + probe.interval;
        }
    } else if (probe.block == nullptr && c != kNoSteadyCounter) {
        // Snapshot, and probe again at the very next back edge.
        probe.block = &b;
        probe.instrs = instrs;
        probe.regs = regs_;
        return cycles + b.cost;
    }
    probe.block = nullptr;
    probe.interval *= 2;
    return cycles + probe.interval;
}


Machine::StepExit
Machine::stepDecoded(std::uint32_t& pc, std::uint64_t& cycles,
                     std::uint64_t& instrs)
{
    // One predecoded instruction: the block backend's precise fallback
    // for budget tails, cold blocks and mid-block entry pcs.  The caller
    // re-enters block dispatch after every instruction, so execution
    // realigns with the next leader.  One case per opcode keeps every
    // ir:: evaluator call on a constant opcode.
    const Decoded& d = decoded_[pc];
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    const bool staged = stagedIo_;
    Nvm& nvm = *nvm_;
    std::uint32_t* const regs = regs_.data();
    cycles += d.cost;
    ++instrs;
    std::uint32_t next = pc + 1;
#define GECKO_BINARY_CASE(op)                                               \
      case Opcode::op:                                                      \
        regs[d.rd] = ir::evalBinary(Opcode::op, regs[d.rs1],                \
                                    d.useImm ? d.imm : regs[d.rs2]);        \
        break;
#define GECKO_UNARY_CASE(op)                                                \
      case Opcode::op:                                                      \
        regs[d.rd] = ir::evalUnary(Opcode::op, regs[d.rs1]);                \
        break;
#define GECKO_BRANCH_CASE(op)                                               \
      case Opcode::op:                                                      \
        if (ir::evalBranch(Opcode::op, regs[d.rs1], regs[d.rs2]))           \
            next = d.target;                                                \
        break;
    switch (d.op) {
      case Opcode::kNop:
        break;
      case Opcode::kMovi:
        regs[d.rd] = d.imm;
        break;
      case Opcode::kMov:
        regs[d.rd] = regs[d.rs1];
        break;
      GECKO_BINARY_CASE(kAdd)
      GECKO_BINARY_CASE(kSub)
      GECKO_BINARY_CASE(kMul)
      GECKO_BINARY_CASE(kDivu)
      GECKO_BINARY_CASE(kRemu)
      GECKO_BINARY_CASE(kAnd)
      GECKO_BINARY_CASE(kOr)
      GECKO_BINARY_CASE(kXor)
      GECKO_BINARY_CASE(kShl)
      GECKO_BINARY_CASE(kShr)
      GECKO_UNARY_CASE(kNot)
      GECKO_UNARY_CASE(kNeg)
      case Opcode::kLoad: {
        const std::uint32_t addr = regs[d.rs1] + d.imm;
        if (!nvm.inRange(addr))
            return StepExit::kFaulted;
        regs[d.rd] = nvm.load(addr);
        break;
      }
      case Opcode::kStore: {
        const std::uint32_t addr = regs[d.rs1] + d.imm;
        if (!nvm.inRange(addr))
            return StepExit::kFaulted;
        nvm.store(addr, regs[d.rs2]);
        break;
      }
      GECKO_BRANCH_CASE(kBeq)
      GECKO_BRANCH_CASE(kBne)
      GECKO_BRANCH_CASE(kBlt)
      GECKO_BRANCH_CASE(kBge)
      GECKO_BRANCH_CASE(kBltu)
      GECKO_BRANCH_CASE(kBgeu)
      case Opcode::kJmp:
        next = d.target;
        break;
      case Opcode::kCall:
        regs[ir::kLinkReg] = pc + 1;
        next = d.target;
        break;
      case Opcode::kRet:
        next = regs[ir::kLinkReg];
        if (next > size)
            return StepExit::kFaulted;
        break;
      case Opcode::kIn: {
        const int port = static_cast<std::int32_t>(d.imm);
        if (port < 0 || port >= kIoPorts)
            return StepExit::kFaulted;
        const auto pi = static_cast<std::size_t>(port);
        const std::uint64_t index = nvm.inCount[pi] + pendingIn_[pi];
        regs[d.rd] = io_->input(port).valueAt(index);
        if (staged)
            ++pendingIn_[pi];
        else
            ++nvm.inCount[pi];
        break;
      }
      case Opcode::kOut: {
        const int port = static_cast<std::int32_t>(d.imm);
        if (port < 0 || port >= kIoPorts)
            return StepExit::kFaulted;
        const auto pi = static_cast<std::size_t>(port);
        const std::uint64_t index = nvm.outCount[pi] + pendingOut_[pi];
        io_->output(port).set(index, regs[d.rs1]);
        if (staged)
            ++pendingOut_[pi];
        else
            ++nvm.outCount[pi];
        break;
      }
      case Opcode::kHalt:
        ++stats.completions;
        if (staged)
            commitIo();
        GECKO_TRACE_EVENT(trace::EventKind::kCompletion, 0,
                          stats.completions, committedOutTotal());
        if (continuous_) {
            restartProgram();
            pc = 0;
            return StepExit::kRestarted;
        }
        halted_ = true;
        return StepExit::kHalted;  // pc stays on the halt instruction
      case Opcode::kBoundary:
        if (staged) {
            nvm.committedRegion = d.imm;
            ++nvm.commitCount;
            commitIo();
            GECKO_TRACE_EVENT(trace::EventKind::kRegionCommit, 0,
                              nvm.committedRegion, nvm.commitCount);
        }
        ++stats.boundaryCommits;
        break;
      case Opcode::kCkpt:
        nvm.writeSlot(d.rs1, static_cast<std::int32_t>(d.imm), regs[d.rs1]);
        ++stats.ckptStores;
        break;
    }
#undef GECKO_BINARY_CASE
#undef GECKO_UNARY_CASE
#undef GECKO_BRANCH_CASE
    pc = next;
    return StepExit::kContinue;
}

bool
Machine::replayArmed() const
{
    const std::array<std::uint32_t, kIoPorts> none{};
    return inFree_ && continuous_ && trace::current() == nullptr &&
           pendingIn_ == none && pendingOut_ == none;
}

Machine::StepExit
Machine::recordCompletion(std::uint32_t& pc, std::uint64_t budget,
                          std::uint64_t& cycles, std::uint64_t& instrs)
{
    // Exactly the deopt path (stepDecoded), with each instruction's NVM
    // traffic noted before it executes.  A word is marked only after it
    // is listed, so the previous recording's lists — finished or
    // abandoned — name every mark to clear.
    Nvm& nvm = *nvm_;
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    CompletionRecord& r = record_;
    recordMarks_.resize(nvm.dataWords());
    for (const CompletionRecord::Word& w : r.liveIns)
        recordMarks_[w.addr] = 0;
    for (const CompletionRecord::Word& w : r.writes)
        recordMarks_[w.addr] = 0;
    r.liveIns.clear();
    r.writes.clear();
    r.slots.clear();
    r.outs.clear();
    std::uint64_t slotsSeen = 0;  // bit reg * kMaxSlots + slot
    static_assert(16 * compiler::kMaxSlots <= 64);
    const std::uint64_t cycles0 = cycles;
    const std::uint64_t instrs0 = instrs;
    const std::uint64_t ckpt0 = stats.ckptStores;
    const std::uint64_t boundary0 = stats.boundaryCommits;
    const std::uint32_t commits0 = nvm.commitCount;
    StepExit exit = StepExit::kContinue;
    while (cycles < budget) {
        if (pc >= size)
            return StepExit::kFaulted;
        const Decoded& d = decoded_[pc];
        const std::uint32_t addr = regs_[d.rs1] + d.imm;
        switch (d.op) {
          case Opcode::kLoad:
            if (nvm.inRange(addr) && recordMarks_[addr] == 0) {
                r.liveIns.push_back({addr, nvm.data()[addr]});
                recordMarks_[addr] = 1;
            }
            break;
          case Opcode::kStore:
            if (nvm.inRange(addr) && (recordMarks_[addr] & 2u) == 0) {
                r.writes.push_back({addr, 0});
                recordMarks_[addr] |= 2u;
            }
            break;
          case Opcode::kCkpt: {
            const std::uint64_t bit =
                std::uint64_t{1} << (d.rs1 * compiler::kMaxSlots + d.imm);
            if ((slotsSeen & bit) == 0) {
                r.slots.push_back({d.rs1, static_cast<std::uint8_t>(d.imm),
                                   0, 0});
                slotsSeen |= bit;
            }
            break;
          }
          case Opcode::kOut:
            r.outs.push_back(
                {static_cast<std::uint8_t>(d.imm), regs_[d.rs1]});
            break;
          default:
            break;
        }
        exit = stepDecoded(pc, cycles, instrs);
        if (exit != StepExit::kContinue)
            break;
    }
    if (exit != StepExit::kRestarted)
        return exit;
    for (CompletionRecord::Word& w : r.writes)
        w.value = nvm.data()[w.addr];
    for (CompletionRecord::Slot& s : r.slots) {
        s.value = nvm.slots[s.reg][s.slot];
        s.crc = nvm.slotCrc[s.reg][s.slot];
    }
    r.commits = nvm.commitCount - commits0;
    r.region = nvm.committedRegion;
    r.instrs = instrs - instrs0;
    r.cycles = cycles - cycles0;
    r.ckptStores = stats.ckptStores - ckpt0;
    r.boundaryCommits = stats.boundaryCommits - boundary0;
    recordReady_ = true;
    return exit;
}

void
Machine::replayCompletions(std::uint64_t budget, std::uint64_t& cycles,
                           std::uint64_t& instrs)
{
    // Each replay stands for one completion from this restart: its
    // live-ins equal the recorded ones, so stepping it would read, write
    // and output exactly what the recording saw.  Effects are applied in
    // the order stepping makes them observable; registers and pc are
    // already the restart state the completion ends in.
    const CompletionRecord& r = record_;
    Nvm& nvm = *nvm_;
    std::vector<std::uint32_t>& data = nvm.data();
    while (cycles < budget && r.cycles <= budget - cycles) {
        for (const CompletionRecord::Word& w : r.liveIns) {
            if (data[w.addr] != w.value) {
                recordReady_ = false;
                ++replayMisses_;
                return;
            }
        }
        for (const CompletionRecord::Word& w : r.writes)
            data[w.addr] = w.value;
        for (const CompletionRecord::Slot& s : r.slots) {
            nvm.slots[s.reg][s.slot] = s.value;
            nvm.slotCrc[s.reg][s.slot] = s.crc;
            nvm.slotShadow[s.reg][s.slot] = s.value;
            nvm.slotShadowCrc[s.reg][s.slot] = s.crc;
        }
        nvm.slotWrites += 2 * r.ckptStores;
        if (r.commits != 0) {
            nvm.committedRegion = r.region;
            nvm.commitCount += r.commits;
        }
        std::array<std::uint32_t, kIoPorts> outs{};
        for (const CompletionRecord::Out& o : r.outs) {
            const std::uint32_t index = nvm.outCount[o.port] +
                                        pendingOut_[o.port] +
                                        outs[o.port]++;
            io_->output(o.port).set(index, o.value);
        }
        for (int p = 0; p < kIoPorts; ++p)
            nvm.outCount[static_cast<std::size_t>(p)] +=
                outs[static_cast<std::size_t>(p)];
        stats.ckptStores += r.ckptStores;
        stats.boundaryCommits += r.boundaryCommits;
        ++stats.completions;
        cycles += r.cycles;
        instrs += r.instrs;
        halted_ = false;  // as restartProgram() leaves it
        ++replayed_;
    }
}

RunExit
Machine::runBlock(std::uint64_t cycleBudget, std::uint64_t* consumed)
{
    // Handler table indexed by UopKind (same order; see superblock.hpp).
    static void* const kKindTable[] = {
        &&u_nop, &&u_movi, &&u_mov, &&u_not, &&u_neg,
        // clang-format off
        &&u_add_rr, &&u_sub_rr, &&u_mul_rr, &&u_divu_rr, &&u_remu_rr,
        &&u_and_rr, &&u_or_rr, &&u_xor_rr, &&u_shl_rr, &&u_shr_rr,
        &&u_add_ri, &&u_sub_ri, &&u_mul_ri, &&u_divu_ri, &&u_remu_ri,
        &&u_and_ri, &&u_or_ri, &&u_xor_ri, &&u_shl_ri, &&u_shr_ri,
        &&u_load, &&u_store,
        &&u_in_staged, &&u_in_direct, &&u_out_staged, &&u_out_direct,
        &&u_boundary_staged, &&u_boundary_plain, &&u_ckpt, &&u_bad_io,
        &&u_andi_addi,
        &&u_mulri_addri, &&u_shrri_xorrr, &&u_andri_shrri, &&u_andri_addrr,
        &&u_mulri_addrr, &&u_andri_xorrr, &&u_movi_addrr, &&u_addrr_load,
        &&u_movi_add_load, &&u_movi_add_store, &&u_ckpt_ckpt,
        &&u_beq, &&u_bne, &&u_blt, &&u_bge, &&u_bltu, &&u_bgeu,
        &&u_jmp, &&u_call, &&u_ret, &&u_halt, &&u_fall,
        &&u_addi_beq, &&u_addi_bne, &&u_addi_blt, &&u_addi_bge,
        &&u_addi_bltu, &&u_addi_bgeu,
        &&u_subi_beq, &&u_subi_bne, &&u_subi_blt, &&u_subi_bge,
        &&u_subi_bltu, &&u_subi_bgeu,
        &&u_addrr_addi_blt, &&u_shrri_addi_blt,
        &&u_movi_fall, &&u_addri_jmp,
        &&u_lcg_loop, &&u_crc_loop, &&u_fir_loop,
        // clang-format on
    };
    static_assert(sizeof(kKindTable) / sizeof(kKindTable[0]) ==
                  static_cast<std::size_t>(kNumUopKinds));

    ensureBlocks();

    SuperBlock* const blocks = blocks_.data();
    Uop* pool = uopPool_.data();
    const std::uint32_t* const blockAt = blockAt_.data();
    const std::uint32_t size = static_cast<std::uint32_t>(decoded_.size());
    Nvm& nvm = *nvm_;
    std::uint32_t* const regs = regs_.data();

    // Hot state lives in locals so the dispatch loop keeps it in
    // registers; counters flush on every exit edge (including
    // exceptions) to stay bit-compatible with the step tier.
    // `instrs`/`cycles` advance at block granularity — the fault path
    // reconstructs mid-block counts from Uop::costPrefix.
    std::uint32_t pc = pc_;
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    SuperBlock* b = nullptr;
    const Uop* u = nullptr;
    // Completion replay's view of this run: the cycles at its last
    // restart and the length of its last whole completion.
    std::uint64_t lastRestart = kNone;
    std::uint64_t lastLen = kNone;
    // Steady-loop fast-forward's view: self-loops chain without a probe
    // up to `loopLimit` cycles (at most the budget).
    SteadyProbe probe;
    probe.interval = kSteadyArmCycles;
    std::uint64_t loopLimit = std::min(cycleBudget, probe.interval);

// One micro-op ends, the next begins: single indirect jump.
#define GECKO_NEXT                                                          \
    do {                                                                    \
        ++u;                                                                \
        goto* u->handler;                                                   \
    } while (0)

// Straight ALU micro-ops; the binary forms evaluate through the ISA's
// one definition with a constant opcode.
#define GECKO_ALU(label, expr)                                              \
    label:                                                                  \
    regs[u->rd] = (expr);                                                   \
    GECKO_NEXT;
#define GECKO_ALU_RR(label, op)                                             \
    GECKO_ALU(label, ir::evalBinary(Opcode::op, regs[u->rs1], regs[u->rs2]))
#define GECKO_ALU_RI(label, op)                                             \
    GECKO_ALU(label, ir::evalBinary(Opcode::op, regs[u->rs1], u->imm))

// Block terminator: account the whole block, then either chain straight
// back into this block's micro-ops (hot self-loop) or re-enter the
// dispatch preamble at `target`.  A self-loop chains up to `loopLimit`
// (never past the budget); its next iteration beyond it probes first.
#define GECKO_END_BLOCK(target)                                             \
    do {                                                                    \
        cycles += b->cost;                                                  \
        instrs += b->len;                                                   \
        const std::uint32_t nx = (target);                                  \
        if (nx == b->start) {                                               \
            if (cycles + b->cost <= loopLimit) {                            \
                u = pool + b->uopStart;                                     \
                goto* u->handler;                                           \
            }                                                               \
            if (cycles + b->cost <= cycleBudget)                            \
                goto steady_probe;                                          \
        }                                                                   \
        pc = nx;                                                            \
        goto chain;                                                         \
    } while (0)

// Conditional branch on `lhs <op> rhs`: taken to Uop::aux, else fall
// through to the next block.
#define GECKO_BRANCH_TO(op, lhs, rhs)                                       \
    GECKO_END_BLOCK(ir::evalBranch(Opcode::op, (lhs), (rhs))                \
                        ? u->aux                                            \
                        : b->start + b->len)
#define GECKO_BRANCH_TERM(label, op)                                        \
    label:                                                                  \
    GECKO_BRANCH_TO(op, regs[u->rs1], regs[u->rs2]);

// Fused loop latch: immediate add/sub, then branch on the result.
#define GECKO_LATCH_TERM(label, alu, op)                                    \
    label: {                                                                \
        const std::uint32_t v = ir::evalBinary(Opcode::alu, regs[u->rs1],   \
                                               u->imm);                     \
        regs[u->rd] = v;                                                    \
        GECKO_BRANCH_TO(op, v, regs[u->rs2]);                               \
    }

    try {
        if (pc == 0 && regs_ == std::array<std::uint32_t, 16>{})
            goto restarted;
      enter:
        if (cycles >= cycleBudget)
            goto budget_out;
        if (pc >= size)
            goto fault_common;
        b = &blocks[blockAt[pc]];
        if (pc != b->start) {
            // Mid-block entry: a budget tail stopped inside a block, or
            // a JIT-checkpoint image restore resumed there.  Step until
            // execution realigns with a leader.
            goto deopt;
        }
        if (!b->compiled) {
            if (++b->execCount < kHotThreshold)
                goto deopt;
            compileBlock(*b);
            pool = uopPool_.data();
        }
        if (!b->threaded) {
            for (std::uint32_t oi = 0; oi < b->uopCount; ++oi) {
                Uop& op = pool[b->uopStart + oi];
                op.handler = kKindTable[static_cast<int>(op.kind)];
            }
            b->threaded = true;
        }
        if (cycles + b->cost > cycleBudget) {
            // Budget tail: the whole block no longer fits the quantum's
            // energy/clock bound — the conservative block-entry guard.
            goto deopt;
        }
        u = pool + b->uopStart;
        goto* u->handler;

        // Fast block-to-block dispatch: terminators land here with the
        // next pc.  A hot, aligned target whose whole cost fits the
        // remaining budget starts threading with one compare chain —
        // the full preamble only runs for cold/unaligned/tail cases.
      chain:
        if (pc < size) {
            SuperBlock* const nb = &blocks[blockAt[pc]];
            if (nb->threaded && pc == nb->start &&
                cycles + nb->cost <= cycleBudget) {
                b = nb;
                u = pool + nb->uopStart;
                goto* u->handler;
            }
        }
        goto enter;

        // ---- Restart: pc 0, registers zeroed -----------------------
        // Apply the recorded completion while it is exact; without a
        // record, record the next completion when the last whole one of
        // this run fits the remaining budget (so the recording can
        // finish).
      restarted:
        if (lastRestart != kNone)
            lastLen = cycles - lastRestart;
        lastRestart = cycles;
        if (cycles >= cycleBudget || !replayArmed())
            goto enter;
        if (recordReady_) {
            replayCompletions(cycleBudget, cycles, instrs);
            if (cycles != lastRestart) {
                lastLen = record_.cycles;
                lastRestart = cycles;
            }
        }
        if (recordReady_ || replayMisses_ >= kMaxReplayMisses ||
            cycles >= cycleBudget || lastLen > cycleBudget - cycles)
            goto enter;
        switch (recordCompletion(pc, cycleBudget, cycles, instrs)) {
          case StepExit::kRestarted:
            goto restarted;
          case StepExit::kFaulted:
            goto fault_common;
          default:  // budget spent mid-completion: the record is dropped
            goto enter;
        }

        // ---- Steady-loop probe at a self-loop back edge -----------
        // The next iteration fits the budget; after a fast-forward it
        // may not, and the tail deopts through the dispatch preamble.
      steady_probe:
        loopLimit = std::min(
            cycleBudget, steadyProbe(probe, *b, cycleBudget, cycles, instrs));
        if (cycles + b->cost <= cycleBudget) {
            u = pool + b->uopStart;
            goto* u->handler;
        }
        pc = b->start;
        goto chain;

        // ---- Per-instruction fallback -----------------------------
        // stepDecoded executes exactly one predecoded instruction, then
        // control re-enters block dispatch: deopts are
        // instruction-precise and threaded execution resumes at the very
        // next leader.
      deopt:
        switch (stepDecoded(pc, cycles, instrs)) {
          case StepExit::kContinue:
            goto enter;
          case StepExit::kRestarted:
            goto restarted;
          case StepExit::kHalted:
            pc_ = pc;
            stats.instrs += instrs;
            stats.cycles += cycles;
            if (consumed)
                *consumed = cycles;
            return RunExit::kHalted;
          case StepExit::kFaulted:
            break;
        }

      fault_common:
        // Mirror step(): the faulting instruction is counted, the PC
        // stays on it, and a non-tolerant machine throws with this run's
        // cycles uncounted (as the step tier loses them when step()
        // throws out of its loop).
        pc_ = pc;
        stats.instrs += instrs;
        instrs = 0;
        fault();  // throws unless fault-tolerant
        stats.cycles += cycles;
        if (consumed)
            *consumed = cycles;
        return RunExit::kFaulted;

        // ---- Straight-line micro-ops ------------------------------
      u_nop:
        GECKO_NEXT;
        GECKO_ALU(u_movi, u->imm)
        GECKO_ALU(u_mov, regs[u->rs1])
        GECKO_ALU(u_not, ir::evalUnary(Opcode::kNot, regs[u->rs1]))
        GECKO_ALU(u_neg, ir::evalUnary(Opcode::kNeg, regs[u->rs1]))
        GECKO_ALU_RR(u_add_rr, kAdd)
        GECKO_ALU_RR(u_sub_rr, kSub)
        GECKO_ALU_RR(u_mul_rr, kMul)
        GECKO_ALU_RR(u_divu_rr, kDivu)
        GECKO_ALU_RR(u_remu_rr, kRemu)
        GECKO_ALU_RR(u_and_rr, kAnd)
        GECKO_ALU_RR(u_or_rr, kOr)
        GECKO_ALU_RR(u_xor_rr, kXor)
        GECKO_ALU_RR(u_shl_rr, kShl)
        GECKO_ALU_RR(u_shr_rr, kShr)
        GECKO_ALU_RI(u_add_ri, kAdd)
        GECKO_ALU_RI(u_sub_ri, kSub)
        GECKO_ALU_RI(u_mul_ri, kMul)
        GECKO_ALU_RI(u_divu_ri, kDivu)
        GECKO_ALU_RI(u_remu_ri, kRemu)
        GECKO_ALU_RI(u_and_ri, kAnd)
        GECKO_ALU_RI(u_or_ri, kOr)
        GECKO_ALU_RI(u_xor_ri, kXor)
        GECKO_ALU(u_shl_ri, regs[u->rs1] << u->imm)  // pre-masked
        GECKO_ALU(u_shr_ri, regs[u->rs1] >> u->imm)  // pre-masked
      u_load: {
        const std::uint32_t addr = regs[u->rs1] + u->imm;
        if (!nvm.inRange(addr))
            goto uop_fault;
        regs[u->rd] = nvm.load(addr);
        GECKO_NEXT;
      }
      u_store: {
        const std::uint32_t addr = regs[u->rs1] + u->imm;
        if (!nvm.inRange(addr))
            goto uop_fault;
        nvm.store(addr, regs[u->rs2]);
        GECKO_NEXT;
      }
      u_andi_addi: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rs2] = t;
        regs[u->rd] = t + u->aux;
        GECKO_NEXT;
      }
      u_mulri_addri: {
        const std::uint32_t t = regs[u->rs1] * u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t + u->imm2;
        GECKO_NEXT;
      }
      u_shrri_xorrr: {
        const std::uint32_t t = regs[u->rs1] >> u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t ^ regs[u->rx];
        GECKO_NEXT;
      }
      u_andri_shrri: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t >> u->imm2;  // pre-masked
        GECKO_NEXT;
      }
      u_andri_addrr: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t + regs[u->rx];
        GECKO_NEXT;
      }

      u_mulri_addrr: {
        const std::uint32_t t = regs[u->rs1] * u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t + regs[u->rx];
        GECKO_NEXT;
      }

      u_andri_xorrr: {
        const std::uint32_t t = regs[u->rs1] & u->imm;
        regs[u->rd] = t;
        regs[u->rd2] = t ^ regs[u->rx];
        GECKO_NEXT;
      }

      u_movi_addrr: {
        regs[u->rd] = u->imm;
        regs[u->rd2] = regs[u->rd] + regs[u->rx];
        GECKO_NEXT;
      }

      u_addrr_load: {
        const std::uint32_t t = regs[u->rs1] + regs[u->rs2];
        regs[u->rd] = t;
        const std::uint32_t addr = t + u->imm2;
        if (!nvm.inRange(addr))
            goto uop_fault;
        regs[u->rd2] = nvm.load(addr);
        GECKO_NEXT;
      }
      u_movi_add_load: {
        const std::uint32_t t = u->imm + regs[u->rx];
        regs[u->rd] = t;
        const std::uint32_t addr = t + u->imm2;
        if (!nvm.inRange(addr))
            goto uop_fault;
        regs[u->rd2] = nvm.load(addr);
        GECKO_NEXT;
      }
      u_movi_add_store: {
        const std::uint32_t t = u->imm + regs[u->rx];
        regs[u->rd] = t;
        const std::uint32_t addr = t + u->imm2;
        if (!nvm.inRange(addr))
            goto uop_fault;
        nvm.store(addr, regs[u->rs2]);
        GECKO_NEXT;
      }
      u_ckpt_ckpt:
        nvm.writeSlot(u->rs1, static_cast<std::int32_t>(u->imm),
                      regs[u->rs1]);
        nvm.writeSlot(u->rd2, static_cast<std::int32_t>(u->imm2),
                      regs[u->rd2]);
        stats.ckptStores += 2;
        GECKO_NEXT;
      u_in_staged: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.inCount[pi] + pendingIn_[pi];
        regs[u->rd] =
            io_->input(static_cast<int>(u->imm)).valueAt(index);
        ++pendingIn_[pi];
        GECKO_NEXT;
      }
      u_in_direct: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.inCount[pi] + pendingIn_[pi];
        regs[u->rd] =
            io_->input(static_cast<int>(u->imm)).valueAt(index);
        ++nvm.inCount[pi];
        GECKO_NEXT;
      }
      u_out_staged: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.outCount[pi] + pendingOut_[pi];
        io_->output(static_cast<int>(u->imm)).set(index, regs[u->rs1]);
        ++pendingOut_[pi];
        GECKO_NEXT;
      }
      u_out_direct: {
        const auto pi = static_cast<std::size_t>(u->imm);
        const std::uint64_t index = nvm.outCount[pi] + pendingOut_[pi];
        io_->output(static_cast<int>(u->imm)).set(index, regs[u->rs1]);
        ++nvm.outCount[pi];
        GECKO_NEXT;
      }
      u_boundary_staged:
        nvm.committedRegion = u->imm;
        ++nvm.commitCount;
        commitIo();
        GECKO_TRACE_EVENT(trace::EventKind::kRegionCommit, 0,
                          nvm.committedRegion, nvm.commitCount);
        ++stats.boundaryCommits;
        GECKO_NEXT;
      u_boundary_plain:
        ++stats.boundaryCommits;
        GECKO_NEXT;
      u_ckpt:
        nvm.writeSlot(u->rs1, static_cast<std::int32_t>(u->imm),
                      regs[u->rs1]);
        ++stats.ckptStores;
        GECKO_NEXT;
      u_bad_io:
        goto uop_fault;

        // ---- Terminators ------------------------------------------
        GECKO_BRANCH_TERM(u_beq, kBeq)
        GECKO_BRANCH_TERM(u_bne, kBne)
        GECKO_BRANCH_TERM(u_blt, kBlt)
        GECKO_BRANCH_TERM(u_bge, kBge)
        GECKO_BRANCH_TERM(u_bltu, kBltu)
        GECKO_BRANCH_TERM(u_bgeu, kBgeu)
      u_jmp:
        GECKO_END_BLOCK(u->aux);
      u_call:
        regs[ir::kLinkReg] = u->imm;
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;
      u_ret: {
        const std::uint32_t nx = regs[ir::kLinkReg];
        if (nx > size)
            goto uop_fault;
        cycles += b->cost;
        instrs += b->len;
        pc = nx;
        goto chain;
      }
      u_halt:
        cycles += b->cost;
        instrs += b->len;
        ++stats.completions;
        if (stagedIo_)
            commitIo();
        GECKO_TRACE_EVENT(trace::EventKind::kCompletion, 0,
                          stats.completions, committedOutTotal());
        if (continuous_) {
            restartProgram();
            pc = 0;
            goto restarted;
        }
        halted_ = true;
        pc_ = b->start + b->len - 1;
        stats.instrs += instrs;
        stats.cycles += cycles;
        if (consumed)
            *consumed = cycles;
        return RunExit::kHalted;
      u_fall:
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;

        // ---- Fused loop latches -----------------------------------
        GECKO_LATCH_TERM(u_addi_beq, kAdd, kBeq)
        GECKO_LATCH_TERM(u_addi_bne, kAdd, kBne)
        GECKO_LATCH_TERM(u_addi_blt, kAdd, kBlt)
        GECKO_LATCH_TERM(u_addi_bge, kAdd, kBge)
        GECKO_LATCH_TERM(u_addi_bltu, kAdd, kBltu)
        GECKO_LATCH_TERM(u_addi_bgeu, kAdd, kBgeu)
        GECKO_LATCH_TERM(u_subi_beq, kSub, kBeq)
        GECKO_LATCH_TERM(u_subi_bne, kSub, kBne)
        GECKO_LATCH_TERM(u_subi_blt, kSub, kBlt)
        GECKO_LATCH_TERM(u_subi_bge, kSub, kBge)
        GECKO_LATCH_TERM(u_subi_bltu, kSub, kBltu)
        GECKO_LATCH_TERM(u_subi_bgeu, kSub, kBgeu)

        // ---- Latch triples (leading ALU op + self-counted latch) ----
      u_addrr_addi_blt: {
        regs[u->rd] = regs[u->rs1] + regs[u->rs2];
        const std::uint32_t v = regs[u->rd2] + u->imm2;
        regs[u->rd2] = v;
        GECKO_BRANCH_TO(kBlt, v, regs[u->rx]);
      }
      u_shrri_addi_blt: {
        regs[u->rd] = regs[u->rs1] >> u->imm;
        const std::uint32_t v = regs[u->rd2] + u->imm2;
        regs[u->rd2] = v;
        GECKO_BRANCH_TO(kBlt, v, regs[u->rx]);
      }

      u_movi_fall: {
        regs[u->rd] = u->imm;
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;
      }

      u_addri_jmp: {
        regs[u->rd] = regs[u->rs1] + u->imm;
        cycles += b->cost;
        instrs += b->len;
        pc = u->aux;
        goto chain;
      }

      u_lcg_loop: {
        // Native counted loop (see compileBlock's matcher): pure ALU
        // body + counter-only exit, so k whole iterations — bounded by
        // the remaining budget and the latch's own exit count — leave
        // registers, cycles and instruction counts exactly as k threaded
        // passes would.
        const std::uint64_t kmax = (cycleBudget - cycles) / b->cost;
        const std::int64_t cnt0 =
            static_cast<std::int32_t>(regs[u->rd2]);
        const std::int64_t bnd = static_cast<std::int32_t>(regs[u->rx]);
        const std::uint64_t kexit =
            bnd > cnt0 ? static_cast<std::uint64_t>(bnd - cnt0) : 1;
        const std::uint64_t k = kmax < kexit ? kmax : kexit;
        std::uint32_t s = regs[u->rd];
        std::uint32_t t = regs[u->rs1];
        std::uint32_t acc = regs[u->rs2];
        const std::uint32_t mulK = u->imm;
        const std::uint32_t addC = u->imm2;
        const std::uint32_t sh = u->aux;
        for (std::uint64_t j = 0; j < k; ++j) {
            s = s * mulK + addC;
            t = s >> sh;
            s ^= t;
            acc += s;
        }
        regs[u->rd] = s;
        regs[u->rs1] = t;
        regs[u->rs2] = acc;
        regs[u->rd2] = static_cast<std::uint32_t>(
            cnt0 + static_cast<std::int64_t>(k));
        cycles += k * b->cost;
        instrs += k * b->len;
        pc = k == kexit ? b->start + b->len : b->start;
        goto chain;
      }

      u_fir_loop: {
        // Native FIR multiply-accumulate loop (see compileBlock's
        // matcher).  Fixed per-iteration cost, counted exit; the two
        // loads are bounds-checked every iteration, and a failing check
        // commits only the completed iterations and replays the
        // faulting one through the per-instruction fallback — the
        // fault fires at the exact instruction with exact state.
        const std::uint64_t kmax = (cycleBudget - cycles) / b->cost;
        const std::int64_t cnt0 =
            static_cast<std::int32_t>(regs[u->rd2]);
        const std::int64_t bnd = static_cast<std::int32_t>(regs[u->rx]);
        const std::uint64_t kexit =
            bnd > cnt0 ? static_cast<std::uint64_t>(bnd - cnt0) : 1;
        const std::uint64_t kIter = kmax < kexit ? kmax : kexit;
        const std::uint8_t rA = u->imm2 & 0xffu;
        const std::uint8_t rX = (u->imm2 >> 8) & 0xffu;
        const std::uint8_t rY = (u->imm2 >> 16) & 0xffu;
        const std::uint32_t mask = u->imm2 >> 24;
        const std::uint32_t ringBase = u->imm;
        const std::uint32_t tapsBase = u->aux;
        const std::uint32_t src = regs[u->rs1];
        std::uint32_t t = regs[u->rd2];
        std::uint32_t acc = regs[u->rd];
        std::uint32_t vI = regs[u->rs2];
        std::uint32_t vA = regs[rA];
        std::uint32_t vX = regs[rX];
        std::uint32_t vY = regs[rY];
        std::uint64_t j = 0;
        for (; j < kIter; ++j) {
            const std::uint32_t idx = (src - t) & mask;
            const std::uint32_t a0 = ringBase + idx;
            if (!nvm.inRange(a0))
                break;
            const std::uint32_t x = nvm.load(a0);
            const std::uint32_t a1 = tapsBase + t;
            if (!nvm.inRange(a1))
                break;
            const std::uint32_t y = nvm.load(a1);
            const std::uint32_t p = x * y;
            acc += p;
            t += 1;
            vI = idx;
            vA = a1;
            vX = p;
            vY = y;
        }
        regs[u->rs2] = vI;
        regs[rA] = vA;
        regs[rX] = vX;
        regs[rY] = vY;
        regs[u->rd] = acc;
        regs[u->rd2] = t;
        cycles += j * b->cost;
        instrs += j * b->len;
        if (j < kIter) {
            // Bounds failure: rewind to the iteration start and let the
            // per-instruction fallback reach the faulting load.
            pc = b->start;
            goto deopt;
        }
        pc = j == kexit ? b->start + b->len : b->start;
        goto chain;
      }

      u_crc_loop: {
        // Native CRC bit loop spanning the three-block cycle rooted at
        // this block (see compileBlock's matcher).  Per-iteration cycle
        // cost is path-dependent (the xor is skipped on a zero bit), so
        // the budget check reserves a worst-case iteration; a mid-loop
        // budget stop resumes at the block start with exact state.
        std::uint32_t s = regs[u->rs1];
        std::uint32_t cnt = regs[u->rs2];
        std::uint32_t bit = regs[u->rd];
        const std::uint32_t z1 = regs[u->rd2];
        const std::uint32_t z2 = regs[u->rx];
        const std::uint32_t poly = u->imm;
        const std::uint64_t cTak = u->imm2;
        const std::uint64_t cNot = u->aux;
        std::uint32_t nx = b->start;
        // An entry with more than kCrcSteadyArmIters iterations to go
        // checks first for the LFSR's fixed point (steady-loop
        // fast-forward): if the next iteration leaves s as it is, every
        // later one repeats it — the bit register is written before it
        // is read, so s and the counter carry all the state.  Apply
        // those whose worst-case budget check passes, up to and
        // including the exit.  A check inside the loop would cost every
        // crc16 iteration (~3 %, DESIGN.md §12).
        const bool taken = (s & 1u) == z1;
        if (cnt - z2 > kCrcSteadyArmIters &&
            ((s >> 1) ^ (taken ? 0u : poly)) == s) {
            const std::uint64_t each = taken ? cTak : cNot;
            const std::uint64_t fit =
                (cycleBudget - cycles - cNot) / each + 1;
            const std::uint64_t toExit = cnt - z2;
            const std::uint64_t n = fit < toExit ? fit : toExit;
            bit = s & 1u;
            cnt -= static_cast<std::uint32_t>(n);
            cycles += n * each;
            instrs += n * (taken ? 5 : 6);
            steadyIters_ += n;
            if (n == toExit)
                nx = b->start + 6;
        } else {
            for (;;) {
                bit = s & 1u;
                s >>= 1;
                if (bit == z1) {
                    cycles += cTak;
                    instrs += 5;
                } else {
                    s ^= poly;
                    cycles += cNot;
                    instrs += 6;
                }
                --cnt;
                if (cnt == z2) {
                    nx = b->start + 6;
                    break;
                }
                if (cycles + cNot > cycleBudget)
                    break;
            }
        }
        regs[u->rd] = bit;
        regs[u->rs1] = s;
        regs[u->rs2] = cnt;
        pc = nx;
        goto chain;
      }

      uop_fault:
        // Reconstruct exact per-instruction counts for the partially
        // executed block: Uop::aux holds the faulting instruction's
        // block-relative index, Uop::costPrefix the block cost up to
        // and including it.
        instrs += u->aux + 1;
        cycles += u->costPrefix;
        pc = b->start + u->aux;
        goto fault_common;

      budget_out:
        pc_ = pc;
        stats.instrs += instrs;
        stats.cycles += cycles;
        if (consumed)
            *consumed = cycles;
        return RunExit::kBudget;
    } catch (...) {
        stats.instrs += instrs;
        pc_ = pc;
        throw;
    }

#undef GECKO_NEXT
#undef GECKO_ALU
#undef GECKO_ALU_RR
#undef GECKO_ALU_RI
#undef GECKO_END_BLOCK
#undef GECKO_BRANCH_TO
#undef GECKO_BRANCH_TERM
#undef GECKO_LATCH_TERM
}

}  // namespace gecko::sim

