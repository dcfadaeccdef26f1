#ifndef GECKO_SIM_MACHINE_HPP_
#define GECKO_SIM_MACHINE_HPP_

#include <array>
#include <cstdint>

#include "compiler/pipeline.hpp"
#include "sim/io_devices.hpp"
#include "sim/nvm.hpp"
#include "sim/superblock.hpp"

/**
 * @file
 * The MCU core: a cycle-counting interpreter for the mini-ISA with
 * volatile registers/PC, NVM main memory, and replay-consistent I/O.
 *
 * I/O staging: in rollback schemes the per-port progress counters commit
 * at region boundaries.  kIn reads `inCount + pendingIn` so re-executing
 * a rolled-back region replays identical inputs; kOut writes its sink at
 * `outCount + pendingOut`, making re-executed outputs idempotent keyed
 * overwrites.  The kBoundary commit (a single logical step, standing for
 * a one-word FRAM write) folds the pending counters into NVM.  In
 * roll-forward schemes (NVP) the counters commit immediately and the
 * pending values are part of the JIT checkpoint, mirroring CTPL's
 * peripheral checkpointing.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::sim {

/**
 * Execution tier used by Machine::run.  Both are architecturally
 * bit-identical — machine_test/fuzz_test assert equal ExecStats, NVM
 * images, I/O and trace streams on every workload×scheme — and differ
 * only in throughput.
 */
enum class ExecBackend {
    kStep,   ///< re-reads the encoded program each step (reference tier)
    kBlock,  ///< block-compiled superinstructions as threaded code
};

/** Stable lowercase backend name ("step", "block"). */
const char* execBackendName(ExecBackend backend);

/**
 * Parse a GECKO_EXEC value: "step" or "block"; null or empty means
 * kBlock.
 * @throws std::invalid_argument on any other value.
 */
ExecBackend parseExecBackend(const char* value);

/**
 * Process-wide default tier for newly constructed machines: the
 * GECKO_EXEC environment variable, read once through parseExecBackend.
 */
ExecBackend defaultExecBackend();

/** Why Machine::run returned. */
enum class RunExit {
    kBudget,   ///< cycle budget exhausted
    kHalted,   ///< program halted (stop-on-halt mode only)
    kFaulted,  ///< machine fault (bad PC/address while fault-tolerant)
};

/** Execution counters. */
struct ExecStats {
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t ckptStores = 0;
    std::uint64_t boundaryCommits = 0;
    std::uint64_t completions = 0;
    std::uint64_t faults = 0;

    bool operator==(const ExecStats&) const = default;
};

/** The simulated MCU core. */
class Machine
{
  public:
    /**
     * @param prog compiled program to execute (must outlive the machine)
     * @param nvm  persistent memory (not owned)
     * @param io   peripherals (not owned)
     */
    Machine(const compiler::CompiledProgram& prog, Nvm& nvm, IoHub& io);

    /** Enable boundary-committed I/O staging (rollback schemes). */
    void setStagedIo(bool staged)
    {
        // Block micro-ops specialize on the staging mode (see
        // UopKind::kInStaged etc.), so flipping it invalidates them.
        if (staged != stagedIo_)
            invalidateBlockCache();
        stagedIo_ = staged;
    }

    /**
     * Keep running after kHalt by restarting the program (continuous
     * sensing loop).  Completions are counted either way.
     */
    void setContinuous(bool continuous) { continuous_ = continuous; }

    /**
     * Convert bad PCs / out-of-range addresses into a machine fault
     * instead of throwing (used when simulating corrupted NVP restores).
     */
    void setFaultTolerant(bool tolerant) { faultTolerant_ = tolerant; }

    /**
     * Select the execution tier (default: defaultExecBackend(), i.e.
     * GECKO_EXEC or the block compiler).  kStep re-reads the encoded
     * program each step; kBlock runs a predecoded instruction array
     * (resolved branch targets, cycle costs folded with the scheme's
     * pseudo-op surcharges), compiling hot straight-line blocks into
     * threaded superinstructions with precise per-instruction
     * deoptimization (see exec_block.cpp).
     */
    void setExecBackend(ExecBackend backend) { backend_ = backend; }
    ExecBackend execBackend() const { return backend_; }

    /**
     * Drop all compiled superblocks and profile counts.  The program is
     * immutable and a JIT-checkpoint image restore only rewrites *data*
     * state (registers/PC/NVM), so nothing calls this automatically
     * except setStagedIo(), whose mode is baked into the micro-ops.
     * Public for tests and for embedders that reuse a Machine across
     * semantically different configurations.
     */
    void invalidateBlockCache();

    /**
     * Execute until ~`cycleBudget` cycles are consumed (may overshoot by
     * one instruction).  A faulted machine spins, consuming the budget
     * without progress.
     * @param consumed out: cycles actually consumed.
     */
    RunExit run(std::uint64_t cycleBudget, std::uint64_t* consumed);

    /**
     * Serialize/restore the core's volatile data state (registers, PC,
     * staging, halt/fault latches, ExecStats).  Configuration flags and
     * the predecode/block caches are *not* archived: the program is
     * immutable, so restore just invalidates the block cache and lets
     * it re-warm — both tiers are architecturally bit-identical, so a
     * cold cache cannot change observable state.
     */
    void archiveState(campaign::Archive& ar);

    /** Cold boot: zero registers/PC, clear staging, clear fault/halt. */
    void powerCycle();

    /** Restart the program after a completion (PC=0, registers zeroed). */
    void restartProgram();

    bool halted() const { return halted_; }
    bool faulted() const { return faulted_; }

    std::array<std::uint32_t, 16>& regs() { return regs_; }
    const std::array<std::uint32_t, 16>& regs() const { return regs_; }
    std::uint32_t pc() const { return pc_; }
    void setPc(std::uint32_t pc) { pc_ = pc; }
    void clearHalt() { halted_ = false; }
    void clearFault() { faulted_ = false; }

    std::array<std::uint32_t, kIoPorts>& pendingIn() { return pendingIn_; }
    std::array<std::uint32_t, kIoPorts>& pendingOut() { return pendingOut_; }
    const std::array<std::uint32_t, kIoPorts>& pendingIn() const
    {
        return pendingIn_;
    }
    const std::array<std::uint32_t, kIoPorts>& pendingOut() const
    {
        return pendingOut_;
    }

    const compiler::CompiledProgram& program() const { return *prog_; }
    Nvm& nvm() { return *nvm_; }

    /**
     * Execute one recovery-block instruction against an explicit register
     * environment (used by the GECKO runtime; supports the safe subset:
     * ALU, moves, read-only loads).
     */
    static void execRecoveryInstr(const ir::Instr& ins,
                                  std::array<std::uint32_t, 16>& env,
                                  const Nvm& nvm);

    ExecStats stats;

  private:
    /**
     * One predecoded instruction: operand fields widened, the branch
     * target resolved to an instruction index, and the cycle cost
     * (including the scheme-dependent kBoundary/kCkpt surcharges)
     * precomputed, so the dispatch loop never re-derives encoded
     * fields.
     */
    struct Decoded {
        ir::Opcode op = ir::Opcode::kNop;
        ir::Reg rd = 0;
        ir::Reg rs1 = 0;
        ir::Reg rs2 = 0;
        bool useImm = false;
        std::uint16_t cost = 1;
        std::uint32_t imm = 0;
        std::uint32_t target = 0;
    };

    void commitIo();
    /** Committed output-words total, the exactly-once I/O witness. */
    std::uint64_t committedOutTotal() const;
    bool step(std::uint64_t* cycles);
    RunExit runStep(std::uint64_t cycleBudget, std::uint64_t* cycles);
    RunExit runBlock(std::uint64_t cycleBudget, std::uint64_t* cycles);
    void ensureBlocks();
    void compileBlock(SuperBlock& block);
    /// How one precisely-stepped instruction left the machine (the
    /// block backend's deopt fallback; see exec_block.cpp).
    enum class StepExit : std::uint8_t { kContinue, kHalted, kFaulted };
    StepExit stepDecoded(std::uint32_t& pc, std::uint64_t& cycles,
                         std::uint64_t& instrs);
    bool fault();

    const compiler::CompiledProgram* prog_;
    Nvm* nvm_;
    IoHub* io_;
    // Branch targets resolved to instruction indices at load time.
    std::vector<std::uint32_t> targets_;
    // Predecoded program for the block tier.
    std::vector<Decoded> decoded_;
    // Superblock partition for the block backend (built lazily on the
    // first runBlock; blocks compile individually once hot).
    std::vector<SuperBlock> blocks_;
    // Instruction index -> index into blocks_ (valid once built).
    std::vector<std::uint32_t> blockAt_;
    // Flattened micro-op arena: every compiled block's stream lives in
    // this one contiguous pool (SuperBlock::uopStart/uopCount slices).
    // compileBlock stages into the scratch vector — the pool may
    // reallocate on append, so slices are index-based and the executor
    // reloads its base pointer after every compile.
    std::vector<Uop> uopPool_;
    std::vector<Uop> uopScratch_;
    bool blocksBuilt_ = false;

    std::array<std::uint32_t, 16> regs_{};
    std::uint32_t pc_ = 0;
    std::array<std::uint32_t, kIoPorts> pendingIn_{};
    std::array<std::uint32_t, kIoPorts> pendingOut_{};
    bool halted_ = false;
    bool faulted_ = false;
    bool stagedIo_ = false;
    bool continuous_ = false;
    bool faultTolerant_ = false;
    // Opt-in block-backend observability (GECKO_TRACE_BLOCKS=1); off by
    // default so golden traces stay byte-identical across backends.
    bool blockTrace_ = false;
    ExecBackend backend_ = defaultExecBackend();
};

}  // namespace gecko::sim

#endif  // GECKO_SIM_MACHINE_HPP_
