#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "campaign/archive.hpp"
#include "compiler/pipeline.hpp"
#include "ir/assembler.hpp"
#include "ir/builder.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/machine.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace gecko::sim {
namespace {

using compiler::CompiledProgram;
using compiler::Scheme;
using ir::Program;
using ir::ProgramBuilder;

CompiledProgram
wrap(Program p)
{
    return compiler::compile(p, Scheme::kNvp);
}

struct Rig {
    Nvm nvm{4096};
    IoHub io;
};

TEST(MachineTest, AluAndControlFlow)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 6
        movi r2, 7
        mul  r3, r1, r2
        sub  r3, r3, #2
        out  0, r3
        halt
)");
    CompiledProgram c = wrap(std::move(p));
    Rig rig;
    std::uint64_t cycles = runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{40});
    EXPECT_GT(cycles, 5u);
}

TEST(MachineTest, MemoryRoundTrip)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 100
        movi r2, 12345
        store [r1+4], r2
        load  r3, [r1+4]
        out   0, r3
        halt
)");
    Rig rig;
    CompiledProgram c = wrap(std::move(p));
    runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{12345});
    EXPECT_EQ(rig.nvm.load(104), 12345u);
}

TEST(MachineTest, CallAndReturn)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 5
        call double
        out  0, r1
        halt
double:
        add r1, r1, r1
        ret
)");
    Rig rig;
    CompiledProgram c = wrap(std::move(p));
    runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{10});
}

TEST(MachineTest, LoopExecutesCorrectCount)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 0
        movi r2, 100
        movi r3, 0
loop:
        add  r1, r1, #3
        add  r3, r3, #1
        bne  r3, r2, loop
        out  0, r1
        halt
)");
    Rig rig;
    runToCompletion(wrap(std::move(p)), rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{300});
}

TEST(MachineTest, InputStreamsAreIndexed)
{
    Program p = ir::Assembler::assemble("t", R"(
        in r1, 1
        in r2, 1
        add r3, r1, r2
        out 0, r3
        halt
)");
    Rig rig;
    rig.io.setInput(1, std::make_shared<VectorInput>(
                           std::vector<std::uint32_t>{10, 20, 30}));
    runToCompletion(wrap(std::move(p)), rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{30});
}

TEST(MachineTest, FaultTolerantModeFlagsBadAccesses)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 100000
        load r2, [r1]
        halt
)");
    CompiledProgram c = wrap(std::move(p));
    Rig rig;
    Machine m(c, rig.nvm, rig.io);

    // Default: throws.
    std::uint64_t consumed = 0;
    EXPECT_THROW(m.run(1000, &consumed), std::runtime_error);

    Machine m2(c, rig.nvm, rig.io);
    m2.setFaultTolerant(true);
    RunExit exit = m2.run(1000, &consumed);
    EXPECT_EQ(exit, RunExit::kFaulted);
    EXPECT_TRUE(m2.faulted());
    // A faulted machine subsequently burns cycles without progress.
    std::uint64_t instrs = m2.stats.instrs;
    m2.run(100, &consumed);
    EXPECT_EQ(consumed, 100u);
    EXPECT_EQ(m2.stats.instrs, instrs);
}

TEST(MachineTest, ContinuousModeRestartsAndCounts)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 2
loop:
        sub r1, r1, #1
        movi r2, 0
        bne r1, r2, loop
        halt
)");
    CompiledProgram c = wrap(std::move(p));
    Rig rig;
    Machine m(c, rig.nvm, rig.io);
    m.setContinuous(true);
    std::uint64_t consumed = 0;
    m.run(10000, &consumed);
    EXPECT_GT(m.stats.completions, 100u);
}

TEST(MachineTest, StagedIoCommitsAtBoundary)
{
    // With staging, inCount only advances at a boundary.
    ProgramBuilder b("t");
    Program raw = b.in(1, 1).out(0, 1).halt().take();
    // Compile for GECKO to get boundaries around I/O.
    CompiledProgram c = compiler::compile(raw, Scheme::kGecko);
    Rig rig;
    rig.io.setInput(1, std::make_shared<VectorInput>(
                           std::vector<std::uint32_t>{42, 43}));
    runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{42});
    EXPECT_EQ(rig.nvm.inCount[1], 1u);
    EXPECT_EQ(rig.nvm.outCount[0], 1u);
}

TEST(MachineTest, CkptAndBoundarySemantics)
{
    ProgramBuilder b("t");
    ir::Program p = b.movi(3, 77).halt().take();
    // Hand-build: ckpt r3 slot 1, then boundary id 5.
    ir::Instr ck;
    ck.op = ir::Opcode::kCkpt;
    ck.rs1 = 3;
    ck.imm = 1;
    p.insertBefore(1, ck);
    ir::Instr bd;
    bd.op = ir::Opcode::kBoundary;
    bd.imm = 5;
    p.insertBefore(2, bd);

    CompiledProgram c;
    c.prog = std::move(p);
    c.scheme = Scheme::kGecko;  // staged mode

    Rig rig;
    Machine m(c, rig.nvm, rig.io);
    m.setStagedIo(true);
    std::uint64_t consumed = 0;
    m.run(100, &consumed);
    EXPECT_TRUE(m.halted());
    EXPECT_EQ(rig.nvm.slots[3][1], 77u);
    EXPECT_EQ(rig.nvm.committedRegion, 5u);
    EXPECT_EQ(rig.nvm.commitCount, 1u);
    EXPECT_EQ(m.stats.ckptStores, 1u);
}

class WorkloadGoldenTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadGoldenTest, ProducesDeterministicNonTrivialOutput)
{
    Program p = workloads::build(GetParam());
    ASSERT_EQ(p.validate(), "");
    CompiledProgram c = wrap(std::move(p));

    Rig r1, r2;
    workloads::setupIo(GetParam(), r1.io);
    workloads::setupIo(GetParam(), r2.io);
    std::uint64_t cyc1 = runToCompletion(c, r1.nvm, r1.io);
    std::uint64_t cyc2 = runToCompletion(c, r2.nvm, r2.io);

    EXPECT_EQ(cyc1, cyc2);
    EXPECT_FALSE(r1.io.output(0).values().empty());
    EXPECT_EQ(r1.io.output(0).values(), r2.io.output(0).values());
    EXPECT_GT(cyc1, 500u) << "workload too trivial";
}

TEST_P(WorkloadGoldenTest, InstrumentationPreservesSemantics)
{
    // The crucial compiler-correctness check: NVP (uninstrumented) and
    // GECKO (fully instrumented) runs must produce identical output.
    Program p = workloads::build(GetParam());
    CompiledProgram nvp = compiler::compile(p, Scheme::kNvp);
    CompiledProgram gecko = compiler::compile(p, Scheme::kGecko);
    CompiledProgram ratchet = compiler::compile(p, Scheme::kRatchet);

    Rig ra, rb, rc;
    workloads::setupIo(GetParam(), ra.io);
    workloads::setupIo(GetParam(), rb.io);
    workloads::setupIo(GetParam(), rc.io);
    runToCompletion(nvp, ra.nvm, ra.io);
    runToCompletion(gecko, rb.nvm, rb.io);
    runToCompletion(ratchet, rc.nvm, rc.io);

    EXPECT_EQ(ra.io.output(0).values(), rb.io.output(0).values());
    EXPECT_EQ(ra.io.output(0).values(), rc.io.output(0).values());
}

TEST_P(WorkloadGoldenTest, StepAndBlockTiersBitIdentical)
{
    // The block-compiled superinstruction backend must be
    // architecturally indistinguishable from the reference step() loop:
    // same counters, same NVM image, same outputs, same registers, same
    // resting PC — on every workload and scheme.  The odd budget slice
    // stops runs at varied mid-block PCs, exercising the block
    // backend's budget-tail deoptimization every slice.
    Program p = workloads::build(GetParam());
    for (Scheme scheme : {Scheme::kNvp, Scheme::kRatchet, Scheme::kGecko}) {
        CompiledProgram c = compiler::compile(p, scheme);
        Rig step_rig, block_rig;
        workloads::setupIo(GetParam(), step_rig.io);
        workloads::setupIo(GetParam(), block_rig.io);
        Machine step(c, step_rig.nvm, step_rig.io);
        Machine block(c, block_rig.nvm, block_rig.io);
        step.setExecBackend(ExecBackend::kStep);
        block.setExecBackend(ExecBackend::kBlock);
        step.setStagedIo(scheme != Scheme::kNvp);
        block.setStagedIo(scheme != Scheme::kNvp);

        while (!step.halted() || !block.halted()) {
            std::uint64_t step_consumed = 0, block_consumed = 0;
            RunExit step_exit = step.run(777, &step_consumed);
            RunExit block_exit = block.run(777, &block_consumed);
            ASSERT_EQ(block_exit, step_exit) << GetParam();
            ASSERT_EQ(block_consumed, step_consumed) << GetParam();
            ASSERT_EQ(block.pc(), step.pc()) << GetParam();
            ASSERT_TRUE(block.stats == step.stats) << GetParam();
            ASSERT_LT(step.stats.cycles, 1ull << 32) << "non-terminating";
        }
        EXPECT_EQ(block.regs(), step.regs());
        EXPECT_EQ(block_rig.nvm.data(), step_rig.nvm.data());
        EXPECT_EQ(block_rig.io.output(0).values(),
                  step_rig.io.output(0).values());
        EXPECT_FALSE(step_rig.io.output(0).values().empty());
    }
}

TEST(MachineTest, BlockContinuousModeMatchesStep)
{
    // Continuous sensing mode restarts the program at kHalt; both tiers
    // must agree across many restarts, including the pending-I/O
    // staging counters.
    Program p = workloads::build("sensor_loop");
    CompiledProgram c = compiler::compile(p, Scheme::kGecko);
    Rig step_rig, block_rig;
    workloads::setupIo("sensor_loop", step_rig.io);
    workloads::setupIo("sensor_loop", block_rig.io);
    Machine step(c, step_rig.nvm, step_rig.io);
    Machine block(c, block_rig.nvm, block_rig.io);
    step.setExecBackend(ExecBackend::kStep);
    block.setExecBackend(ExecBackend::kBlock);
    for (Machine* m : {&step, &block}) {
        m->setStagedIo(true);
        m->setContinuous(true);
    }

    for (int slice = 0; slice < 64; ++slice) {
        std::uint64_t step_consumed = 0, block_consumed = 0;
        RunExit step_exit = step.run(1231, &step_consumed);
        RunExit block_exit = block.run(1231, &block_consumed);
        ASSERT_EQ(block_exit, step_exit);
        ASSERT_EQ(block_consumed, step_consumed);
        ASSERT_EQ(block.pc(), step.pc());
        ASSERT_TRUE(block.stats == step.stats);
    }
    EXPECT_GT(step.stats.completions, 0u);
    EXPECT_EQ(block.pendingIn(), step.pendingIn());
    EXPECT_EQ(block.pendingOut(), step.pendingOut());
    EXPECT_EQ(block_rig.nvm.data(), step_rig.nvm.data());
    EXPECT_EQ(block_rig.io.output(0).values(),
              step_rig.io.output(0).values());
}

TEST(MachineTest, EdgeOperandsAgreeAcrossTiers)
{
    // Zero divisors, shift amounts above 31 and sign-bit compares (the
    // operands an EMFI operand flip produces), in register and
    // immediate form.  Six passes cross the hot threshold, so the block
    // tier runs them both through stepDecoded and as compiled micro-ops.
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 7
        movi r2, 0
        movi r5, 33
        movi r6, -1
        movi r7, 6
loop:
        divu r3, r1, r2
        out  0, r3
        remu r3, r1, #0
        out  0, r3
        shl  r3, r1, r5
        out  0, r3
        shr  r3, r6, #33
        out  0, r3
        movi r3, 1
        blt  r6, r2, signed
        movi r3, 2
signed:
        out  0, r3
        movi r3, 1
        bltu r6, r2, unsigned
        movi r3, 2
unsigned:
        out  0, r3
        sub  r7, r7, #1
        bne  r7, r2, loop
        halt
)");
    CompiledProgram c = wrap(std::move(p));
    const std::vector<std::uint32_t> pass = {0xffffffffu, 7u, 14u,
                                             0x7fffffffu, 1u, 2u};
    std::vector<std::uint32_t> expected;
    for (int i = 0; i < 6; ++i)
        expected.insert(expected.end(), pass.begin(), pass.end());
    for (ExecBackend backend : {ExecBackend::kStep, ExecBackend::kBlock}) {
        Rig rig;
        Machine m(c, rig.nvm, rig.io);
        m.setExecBackend(backend);
        std::uint64_t consumed = 0;
        EXPECT_EQ(m.run(1'000'000, &consumed), RunExit::kHalted);
        EXPECT_EQ(rig.io.output(0).values(), expected)
            << execBackendName(backend);
    }
}

TEST(MachineTest, ExecBackendParsingAcceptsOnlyStepAndBlock)
{
    EXPECT_EQ(parseExecBackend("step"), ExecBackend::kStep);
    EXPECT_EQ(parseExecBackend("block"), ExecBackend::kBlock);
    EXPECT_EQ(parseExecBackend(""), ExecBackend::kBlock);
    EXPECT_EQ(parseExecBackend(nullptr), ExecBackend::kBlock);
    // The removed tier, its legacy alias and a typo are rejected rather
    // than silently mapped to the default.
    for (const char* bad : {"fast", "slow", "blok"})
        EXPECT_THROW(parseExecBackend(bad), std::invalid_argument) << bad;
}

// ---------------------------------------------------------------------
// Completion replay (DESIGN.md §12): in continuous mode the block tier
// applies a repeated completion as its recorded effect.  Every case runs
// a step and a block machine in lockstep and compares everything either
// could have changed after every run.
// ---------------------------------------------------------------------

/** The archived bytes of a Machine, Nvm or IoHub: every field a
 *  snapshot keeps (for the hub, each sink's keyed values and
 *  conflicts()). */
template <class State>
std::vector<std::uint8_t>
archived(State& state)
{
    campaign::Archive ar = campaign::Archive::saver();
    state.archiveState(ar);
    return ar.takePayload();
}

/** A step and a block machine (in continuous mode unless told
 *  otherwise), each on its own rig. */
struct Lockstep {
    Rig stepRig;
    Rig blockRig;
    Machine step;
    Machine block;

    Lockstep(const CompiledProgram& c, const std::string& workload,
             bool continuous = true)
        : step(c, stepRig.nvm, stepRig.io), block(c, blockRig.nvm, blockRig.io)
    {
        if (!workload.empty()) {
            workloads::setupIo(workload, stepRig.io);
            workloads::setupIo(workload, blockRig.io);
        }
        step.setExecBackend(ExecBackend::kStep);
        block.setExecBackend(ExecBackend::kBlock);
        for (Machine* m : {&step, &block}) {
            m->setStagedIo(c.scheme != Scheme::kNvp);
            m->setContinuous(continuous);
        }
    }

    /** One run of `budget` cycles on both; then everything must agree:
     *  ExecStats, pc, registers and pending I/O (the machine archive),
     *  the whole Nvm (data, slots with their CRC and shadow copies,
     *  slotWrites, committedRegion, commitCount, inCount/outCount) and
     *  every output sink. */
    void run(std::uint64_t budget, const std::string& label)
    {
        std::uint64_t stepConsumed = 0, blockConsumed = 0;
        const RunExit stepExit = step.run(budget, &stepConsumed);
        const RunExit blockExit = block.run(budget, &blockConsumed);
        ASSERT_EQ(blockExit, stepExit) << label;
        ASSERT_EQ(blockConsumed, stepConsumed) << label;
        ASSERT_TRUE(block.stats == step.stats)
            << label << ": instrs " << block.stats.instrs << " vs "
            << step.stats.instrs << ", completions "
            << block.stats.completions << " vs " << step.stats.completions;
        ASSERT_EQ(block.pc(), step.pc()) << label;
        ASSERT_EQ(block.regs(), step.regs()) << label;
        ASSERT_EQ(block.pendingIn(), step.pendingIn()) << label;
        ASSERT_EQ(block.pendingOut(), step.pendingOut()) << label;
        ASSERT_TRUE(archived(block) == archived(step)) << label;
        ASSERT_TRUE(blockRig.nvm.data() == stepRig.nvm.data())
            << label << ": NVM data";
        ASSERT_TRUE(archived(blockRig.nvm) == archived(stepRig.nvm))
            << label << ": NVM slots or protocol words";
        for (int port = 0; port < kIoPorts; ++port) {
            ASSERT_EQ(blockRig.io.output(port).values(),
                      stepRig.io.output(port).values())
                << label << " port " << port;
            ASSERT_EQ(blockRig.io.output(port).conflicts(),
                      stepRig.io.output(port).conflicts())
                << label << " port " << port;
        }
        ASSERT_TRUE(archived(blockRig.io) == archived(stepRig.io))
            << label << ": output indices";
        ASSERT_EQ(step.replayedCompletions(), 0u) << "the step tier replayed";
        ASSERT_EQ(step.steadyLoopIterations(), 0u)
            << "the step tier fast-forwarded";
    }

    /** Overwrite every checkpoint slot's four words in both rigs alike
     *  (the machine never reads slots): the next completion must rewrite
     *  each slot it writes — value, CRC, shadow and shadow CRC — whether
     *  it executes or replays. */
    void disturbSlots(std::uint32_t salt)
    {
        for (Nvm* nvm : {&stepRig.nvm, &blockRig.nvm})
            for (std::size_t r = 0; r < 16; ++r)
                for (std::size_t k = 0; k < compiler::kMaxSlots; ++k) {
                    nvm->slots[r][k] ^= salt;
                    nvm->slotCrc[r][k] ^= salt << 1;
                    nvm->slotShadow[r][k] ^= salt << 2;
                    nvm->slotShadowCrc[r][k] ^= salt << 3;
                }
    }
};

/** Cycles of each of the first `n` completions of `c` from a fresh rig. */
std::vector<std::uint64_t>
completionCycles(const CompiledProgram& c, const std::string& workload,
                 int n)
{
    Rig rig;
    workloads::setupIo(workload, rig.io);
    Machine m(c, rig.nvm, rig.io);
    m.setExecBackend(ExecBackend::kStep);
    m.setStagedIo(c.scheme != Scheme::kNvp);
    std::vector<std::uint64_t> cycles;
    for (int i = 0; i < n; ++i) {
        std::uint64_t total = 0;
        while (!m.halted()) {
            std::uint64_t consumed = 0;
            m.run(1u << 20, &consumed);
            total += consumed;
        }
        cycles.push_back(total);
        // The state a continuous-mode kHalt restarts into.
        m.restartProgram();
    }
    return cycles;
}

bool
readsInput(const CompiledProgram& c)
{
    for (std::size_t i = 0; i < c.prog.size(); ++i)
        if (c.prog.at(i).op == ir::Opcode::kIn)
            return true;
    return false;
}

class CompletionReplayTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CompletionReplayTest, BlockTierMatchesStepInContinuousMode)
{
    // Three budgets per scheme: one holding at least eight completions,
    // an odd one that cuts completions (and runs that start mid-way),
    // and one that ends exactly on a restart (the next run then starts
    // at one).  The slots are disturbed between runs.
    const std::string name = GetParam();
    const Program p = workloads::build(name);
    for (Scheme scheme : {Scheme::kNvp, Scheme::kRatchet, Scheme::kGecko}) {
        const CompiledProgram c = compiler::compile(p, scheme);
        const std::vector<std::uint64_t> lens = completionCycles(c, name, 8);
        std::uint64_t firstEight = 0;
        for (std::uint64_t len : lens)
            firstEight += len;
        const std::uint64_t len = lens.back();
        const struct {
            const char* kind;
            std::uint64_t budget;
            int runs;
        } plans[] = {{"eight", 12 * len + len / 2, 3},
                     {"odd", 10 * len / 3 + 7, 8},
                     {"exact", firstEight, 3}};
        for (const auto& plan : plans) {
            const std::string label = name + "/" +
                                      compiler::schemeName(scheme) + "/" +
                                      plan.kind;
            Lockstep ls(c, name);
            for (int run = 0; run < plan.runs; ++run) {
                ASSERT_NO_FATAL_FAILURE(
                    ls.run(plan.budget, label + " run " + std::to_string(run)));
                if (run == 0 && std::string(plan.kind) == "exact") {
                    ASSERT_EQ(ls.step.pc(), 0u) << label << ": not a restart";
                }
                ls.disturbSlots(0x9e3779b9u * static_cast<std::uint32_t>(run + 1));
            }
            if (readsInput(c)) {
                EXPECT_EQ(ls.block.replayedCompletions(), 0u) << label;
            } else if (std::string(plan.kind) != "odd") {
                EXPECT_GT(ls.block.replayedCompletions(), 0u) << label;
            }
        }
    }
}

TEST(CompletionReplayMachineTest, ChangedLiveInReExecutes)
{
    // Word 100 is read before anything writes it: a live-in.  Changing
    // it between runs must make the next completion execute again (its
    // output follows the new value), after which replay resumes.
    CompiledProgram c = wrap(ir::Assembler::assemble("t", R"(
        movi r1, 100
        load r2, [r1]
        movi r3, 0
        movi r4, 50
loop:
        add  r2, r2, #3
        add  r3, r3, #1
        bne  r3, r4, loop
        store [r1+1], r2
        out  0, r2
        halt
)"));
    Lockstep ls(c, "");
    for (int run = 0; run < 3; ++run)
        ASSERT_NO_FATAL_FAILURE(ls.run(5000, "before"));
    const std::uint64_t replayedBefore = ls.block.replayedCompletions();
    EXPECT_GT(replayedBefore, 0u);
    EXPECT_EQ(ls.blockRig.io.output(0).values().back(), 150u);
    for (Rig* rig : {&ls.stepRig, &ls.blockRig})
        rig->nvm.store(100, 7);
    ASSERT_NO_FATAL_FAILURE(ls.run(5000, "after"));
    EXPECT_EQ(ls.blockRig.io.output(0).values().back(), 157u);
    EXPECT_EQ(ls.blockRig.nvm.load(101), 157u);
    for (int run = 0; run < 2; ++run)
        ASSERT_NO_FATAL_FAILURE(ls.run(5000, "resumed"));
    EXPECT_GT(ls.block.replayedCompletions(), replayedBefore);
}

TEST(CompletionReplayMachineTest, LiveInEveryCompletionChangesNeverReplays)
{
    // A persistent counter: every completion reads what the last one
    // wrote, so no record ever applies.
    CompiledProgram c = wrap(ir::Assembler::assemble("t", R"(
        movi r1, 100
        load r2, [r1]
        add  r2, r2, #1
        store [r1], r2
        out  0, r2
        halt
)"));
    Lockstep ls(c, "");
    for (int run = 0; run < 8; ++run)
        ASSERT_NO_FATAL_FAILURE(ls.run(10000, "counter"));
    EXPECT_EQ(ls.block.replayedCompletions(), 0u);
    EXPECT_GT(ls.step.stats.completions, 100u);
}

TEST(CompletionReplayMachineTest, InputProgramNeverReplays)
{
    CompiledProgram c = wrap(ir::Assembler::assemble("t", R"(
        in   r1, 1
        out  0, r1
        halt
)"));
    Lockstep ls(c, "");
    for (Rig* rig : {&ls.stepRig, &ls.blockRig})
        rig->io.setInput(1, std::make_shared<VectorInput>(
                                std::vector<std::uint32_t>{5, 6, 7}));
    for (int run = 0; run < 8; ++run)
        ASSERT_NO_FATAL_FAILURE(ls.run(10000, "in"));
    EXPECT_EQ(ls.block.replayedCompletions(), 0u);
    EXPECT_GT(ls.step.stats.completions, 50u);
}

TEST(CompletionReplayMachineTest, TraceBufferDisablesReplay)
{
    // Replayed completions would emit no events, so a traced run
    // executes every completion: its event stream equals the step
    // tier's.
    const CompiledProgram c =
        compiler::compile(workloads::build("crc16"), Scheme::kGecko);
    Lockstep ls(c, "crc16");
    trace::Buffer stepTrace, blockTrace;
    const std::uint64_t len = completionCycles(c, "crc16", 2).back();
    for (int run = 0; run < 3; ++run) {
        std::uint64_t consumed = 0;
        {
            trace::BufferScope scope(&stepTrace);
            ls.step.run(12 * len, &consumed);
        }
        {
            trace::BufferScope scope(&blockTrace);
            ls.block.run(12 * len, &consumed);
        }
    }
    EXPECT_EQ(ls.block.replayedCompletions(), 0u);
    EXPECT_TRUE(ls.block.stats == ls.step.stats);
    EXPECT_GT(ls.step.stats.completions, 30u);
    EXPECT_TRUE(blockTrace.events() == stepTrace.events());
    EXPECT_EQ(blockTrace.dropped(), stepTrace.dropped());
    if (trace::compiledIn()) {
        EXPECT_GT(stepTrace.size(), 30u);
    }
    // Untraced, the same machine replays.
    ASSERT_NO_FATAL_FAILURE(ls.run(12 * len, "untraced"));
    EXPECT_GT(ls.block.replayedCompletions(), 0u);
}

// ---------------------------------------------------------------------
// Steady-loop fast-forward (DESIGN.md §12): a register-only counted
// self-loop whose other registers stop changing is applied in closed
// form by the block tier; the step tier executes every iteration.
// ---------------------------------------------------------------------

constexpr ir::Opcode kLatches[] = {ir::Opcode::kBeq,  ir::Opcode::kBne,
                                   ir::Opcode::kBlt,  ir::Opcode::kBge,
                                   ir::Opcode::kBltu, ir::Opcode::kBgeu};

TEST(SteadyLatchRunTest, MatchesCountingOneByOne)
{
    // Counters next to the exit and to the INT32 and UINT32 wraps, steps
    // of ±1, ±7 and two that jump most of the circle.
    const std::uint32_t steps[] = {1u, 0u - 1u, 7u, 0u - 7u, 0x7fffffffu,
                                   0x80000001u};
    const std::uint32_t bounds[] = {0u, 1000u, 0x7fffffffu, 0x80000000u,
                                    0xffffffffu};
    int checked = 0;
    for (ir::Opcode op : kLatches)
        for (bool lhs : {true, false})
            for (std::uint32_t step : steps)
                for (std::uint32_t bound : bounds)
                    for (std::uint32_t anchor :
                         {bound, 0u, 0x7fffffffu, 0x80000000u, 0xffffffffu})
                        for (std::uint32_t j : {0u, 1u, 40u})
                            for (std::uint32_t d : {0u, 1u, 0u - 1u}) {
                                const std::uint32_t c = anchor - j * step + d;
                                // Only a value whose latch was just taken.
                                if (!(lhs ? ir::evalBranch(op, c, bound)
                                          : ir::evalBranch(op, bound, c)))
                                    continue;
                                for (std::uint64_t cap : {3u, 300u}) {
                                    ASSERT_EQ(steadyLatchRun(op, lhs, c, step,
                                                             bound, cap),
                                              test::latchTakenOneByOne(
                                                  op, lhs, c, step, bound, cap))
                                        << ir::mnemonic(op) << " lhs=" << lhs
                                        << " c=" << c << " step=" << step
                                        << " bound=" << bound
                                        << " cap=" << cap;
                                    ++checked;
                                }
                            }
    EXPECT_GT(checked, 5000);
}

/** An NVP program around one self-loop block: r1 counts by
 *  `alu r1, r1, #imm` against r2 (`counterLhs`: `br r1, r2`), after
 *  `body`; r5 = 0 and r6 = 7 on entry, so the default bitcnt-style body
 *  is steady from the first iteration. */
CompiledProgram
selfLoop(const std::string& alu, std::int32_t imm, ir::Opcode br,
         bool counterLhs, std::uint32_t c0, std::uint32_t bound,
         const std::string& body = "and r7, r5, #1\n add r6, r6, r7\n"
                                   "shr r5, r5, #1\n")
{
    std::ostringstream src;
    src << "movi r1, " << static_cast<std::int32_t>(c0) << "\n"
        << "movi r2, " << static_cast<std::int32_t>(bound) << "\n"
        << "movi r5, 0\nmovi r6, 7\nmovi r9, 100\n"
        << "loop:\n"
        << body << alu << " r1, r1, #" << imm << "\n"
        << ir::mnemonic(br) << (counterLhs ? " r1, r2, loop\n"
                                           : " r2, r1, loop\n")
        << "out 0, r1\nout 0, r6\nhalt\n";
    CompiledProgram c;
    c.prog = ir::Assembler::assemble("steady", src.str());
    c.scheme = Scheme::kNvp;
    return c;
}

/** Runs in lockstep until both halt: budgets 1..24 (no probe fits),
 *  every other one of 64..120 (a probe with a budget a few iterations
 *  away), then large ones.  Every run's state must agree (Lockstep::run). */
void
runSteadyPlan(Lockstep& ls, const std::string& label)
{
    std::vector<std::uint64_t> budgets;
    for (std::uint64_t b = 1; b <= 24; ++b)
        budgets.push_back(b);
    for (std::uint64_t b = 64; b <= 120; b += 2)
        budgets.push_back(b);
    for (std::uint64_t b : budgets) {
        ASSERT_NO_FATAL_FAILURE(ls.run(b, label + " budget " + std::to_string(b)));
        if (ls.step.halted())
            return;
    }
    for (int run = 0; run < 4 && !ls.step.halted(); ++run)
        ASSERT_NO_FATAL_FAILURE(ls.run(1u << 22, label + " large"));
    ASSERT_TRUE(ls.step.halted()) << label;
}

TEST(SteadyLoopTest, BlockTierMatchesStepAndFastForwards)
{
    int programs = 0, fired = 0;
    for (const char* alu : {"add", "sub"})
        for (std::int32_t imm : {1, -1, 7})  // with sub: steps ±1, ±7
            for (ir::Opcode br : kLatches)
                for (bool lhs : {true, false})
                    for (std::uint32_t bound :
                         {1000u, 0x80000010u, 0xfffffff0u})
                        for (std::uint32_t anchor :
                             {bound, 0x7fffffffu, 0xffffffffu})
                            for (std::uint32_t m : {20u, 600u}) {
                                const std::uint32_t step =
                                    std::string(alu) == "add"
                                        ? static_cast<std::uint32_t>(imm)
                                        : 0u - static_cast<std::uint32_t>(imm);
                                const std::uint32_t c0 = anchor - m * step;
                                const std::uint64_t trips =
                                    test::latchTakenOneByOne(br, lhs, c0, step,
                                                             bound, 4000) +
                                    1;
                                if (trips > 4000)
                                    continue;
                                std::ostringstream label;
                                label << alu << " #" << imm << " "
                                      << ir::mnemonic(br)
                                      << (lhs ? " c,b" : " b,c")
                                      << " c0=" << c0 << " bound=" << bound;
                                const CompiledProgram c =
                                    selfLoop(alu, imm, br, lhs, c0, bound);
                                Lockstep ls(c, "", false);
                                ASSERT_NO_FATAL_FAILURE(
                                    runSteadyPlan(ls, label.str()));
                                ++programs;
                                if (trips >= 200) {
                                    EXPECT_GT(ls.block.steadyLoopIterations(),
                                              0u)
                                        << label.str();
                                    ++fired;
                                }
                            }
    EXPECT_GT(programs, 200);
    EXPECT_GT(fired, 50);
    std::cout << "[steady] " << programs << " programs, " << fired
              << " long enough to fast-forward\n";
}

TEST(SteadyLoopTest, LongSteadyLoopRunsInClosedForm)
{
    // 2^31 iterations — unsteppable in a test on the step tier — in a
    // handful of large runs: the counter, ExecStats and outputs follow
    // from the iteration count alone.
    const CompiledProgram c =
        selfLoop("add", 1, ir::Opcode::kBltu, true, 0, 0x80000000u);
    Rig rig;
    Machine m(c, rig.nvm, rig.io);
    m.setExecBackend(ExecBackend::kBlock);
    std::uint64_t runs = 0;
    while (!m.halted() && runs < 100) {
        std::uint64_t consumed = 0;
        m.run(std::uint64_t{1} << 36, &consumed);
        ++runs;
    }
    ASSERT_TRUE(m.halted());
    EXPECT_EQ(rig.io.output(0).values(),
              (std::vector<std::uint32_t>{0x80000000u, 7u}));
    // Five prologue movis, five instructions per iteration, three after.
    EXPECT_EQ(m.stats.instrs, 5u + 5u * 0x80000000ull + 3u);
    EXPECT_GT(m.steadyLoopIterations(), 0x7fff0000u);
}

TEST(SteadyLoopTest, FastForwardAppliesEveryTakenIteration)
{
    // The count is the largest one, not just a safe one.  White-box on
    // the probe schedule: a run that enters the hot loop's head at cycle
    // 0 chains while its next iteration ends by cycle 64, snapshots at
    // the first back edge past that, compares one iteration later and
    // then applies every taken iteration left — all of a T-iteration
    // loop but floor(64 / cost) + 2.
    const CompiledProgram c =
        selfLoop("add", 1, ir::Opcode::kBlt, true, 0, 1000);
    constexpr std::uint32_t kHead = 5;  // after the five prologue movis
    std::uint64_t cost = 0;
    for (std::uint32_t pc = kHead; pc < kHead + 5; ++pc)
        cost += static_cast<std::uint64_t>(ir::cycleCost(c.prog.at(pc)));
    const std::uint64_t before = 64 / cost + 2;
    Rig rig;
    Machine m(c, rig.nvm, rig.io);
    m.setExecBackend(ExecBackend::kBlock);
    std::uint64_t consumed = 0;
    m.run(300, &consumed);  // compiles the loop block
    ASSERT_FALSE(m.halted());
    for (std::uint64_t trips :
         {before + 1, before + 2, before + 3, std::uint64_t{500}}) {
        m.clearHalt();
        m.setPc(kHead);
        m.regs()[1] = static_cast<std::uint32_t>(1000 - trips);
        m.regs()[7] = 0;
        const std::uint64_t applied = m.steadyLoopIterations();
        ASSERT_EQ(m.run(1u << 20, &consumed), RunExit::kHalted);
        EXPECT_EQ(m.steadyLoopIterations() - applied, trips - before)
            << trips << " iterations of cost " << cost;
        EXPECT_EQ(m.regs()[1], 1000u);
    }
}

/** Run `c` in lockstep to its halt; the fast-forward must never fire. */
void
expectNeverFires(const CompiledProgram& c, const std::string& label)
{
    Lockstep ls(c, "", false);
    ASSERT_NO_FATAL_FAILURE(runSteadyPlan(ls, label));
    EXPECT_EQ(ls.block.steadyLoopIterations(), 0u) << label;
}

TEST(SteadyLoopTest, BodyReadingTheCounterNeverFires)
{
    // r7 = the counter's sign bit: constant until the counter crosses
    // INT32_MAX, then it feeds r6.  An unchanged iteration before the
    // crossing proves nothing.
    expectNeverFires(selfLoop("add", 1, ir::Opcode::kBltu, true,
                              0x7fffffffu - 500, 0x80000200u,
                              "shr r7, r1, #31\nadd r6, r6, r7\n"),
                     "sign bit");
}

TEST(SteadyLoopTest, RegisterChangingEveryIterationNeverFires)
{
    // A 16-bit Galois LFSR (r6 = 7 on entry) never revisits a state
    // within the loop.
    expectNeverFires(
        selfLoop("add", 1, ir::Opcode::kBlt, true, 0, 3000,
                 "shr r7, r6, #1\nand r8, r6, #1\nmul r8, r8, #0xB400\n"
                 "xor r6, r7, r8\n"),
        "lfsr");
}

TEST(SteadyLoopTest, MemoryIoAndPseudoOpsNeverFire)
{
    // Each body leaves the registers unchanged, but touches NVM, an
    // output port or the checkpoint protocol in every iteration.
    for (const char* body :
         {"load r7, [r9+4]\n", "store [r9+4], r6\n", "out 2, r6\n",
          "ckpt r6, 1, 0\n", "boundary 3\n"})
        expectNeverFires(selfLoop("add", 1, ir::Opcode::kBlt, true, 0, 3000,
                                  body),
                         body);
}

TEST(SteadyLoopTest, MultiBlockLoopNeverFires)
{
    // The latch block branches back to the loop head, not to itself.
    expectNeverFires(selfLoop("add", 1, ir::Opcode::kBlt, true, 0, 3000,
                              "and r7, r5, #1\nbeq r7, r5, skip\n"
                              "add r6, r6, r7\nskip:\n"),
                     "two blocks");
}

const std::vector<std::string>&
allWorkloads()
{
    static const std::vector<std::string> names = [] {
        auto v = workloads::benchmarkNames();
        v.push_back("sensor_loop");
        v.push_back("sensor_app");
        v.push_back("xtea");
        return v;
    }();
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadGoldenTest,
                         ::testing::ValuesIn(allWorkloads()),
                         [](const auto& info) { return info.param; });

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CompletionReplayTest,
                         ::testing::ValuesIn(allWorkloads()),
                         [](const auto& info) { return info.param; });

/** An NVP program around the CRC-16/ARC bit loop that kCrcBitLoop
 *  runs natively, entered `entries` times: shift register r7 = `s0`,
 *  bit register r10 = 5 (stale) against r11 = 0, bit counter r8 =
 *  `cnt` counting down to r12 = `z2`. */
CompiledProgram
crcBitLoop(std::uint32_t s0, std::uint32_t cnt, std::uint32_t z2,
           int entries)
{
    std::ostringstream src;
    src << "movi r11, 0\nmovi r12, " << static_cast<std::int32_t>(z2) << "\n"
        << "movi r13, 0\nmovi r14, " << entries << "\n"
        << "outer:\nmovi r7, " << static_cast<std::int32_t>(s0) << "\n"
        << "movi r8, " << static_cast<std::int32_t>(cnt) << "\nmovi r10, 5\n"
        << "loop:\nand r10, r7, #1\nshr r7, r7, #1\nbeq r10, r11, skip\n"
        << "xor r7, r7, #0xA001\nskip:\nsub r8, r8, #1\nbne r8, r12, loop\n"
        << "add r13, r13, #1\nblt r13, r14, outer\n"
        << "out 0, r7\nout 0, r8\nout 0, r10\nhalt\n";
    CompiledProgram c;
    c.prog = ir::Assembler::assemble("crc_bits", src.str());
    c.scheme = Scheme::kNvp;
    return c;
}

TEST(SteadyLoopTest, CrcFixedPointMatchesStep)
{
    // kCrcBitLoop fast-forwards at the LFSR's fixed points: 0xC001
    // (0xC001 >> 1 ^ 0xA001, the xor path) and 0 (the xor skipped);
    // 0x18002 drains into 0xC001 in one iteration, a counter may wrap
    // through 0 to its exit, and a compiled loop entered at the fixed
    // point still holds a stale bit register.  A byte's natural 8
    // iterations never check, and a state on an LFSR cycle never fires.
    const struct {
        std::uint32_t s0, cnt, z2;
        int entries;
        bool fires;
    } cases[] = {
        {0xC001u, 3000u, 0u, 1, true},   {0u, 3000u, 0u, 1, true},
        {0x18002u, 3000u, 0u, 1, true},  {0xC001u, 3005u, 5u, 1, true},
        {0xC001u, 100u, 0u - 2900u, 1, true},
        {0xC001u, 100u, 0u, 40, true},   {0xC001u, 8u, 0u, 40, false},
        {0xC078u, 3000u, 0u, 1, false},
    };
    for (const auto& k : cases) {
        std::ostringstream label;
        label << "s0=" << std::hex << k.s0 << " cnt=" << k.cnt
              << " z2=" << k.z2 << " entries=" << std::dec << k.entries;
        const CompiledProgram c = crcBitLoop(k.s0, k.cnt, k.z2, k.entries);
        Lockstep ls(c, "", false);
        ASSERT_NO_FATAL_FAILURE(runSteadyPlan(ls, label.str()));
        if (k.fires)
            EXPECT_GT(ls.block.steadyLoopIterations(), 0u) << label.str();
        else
            EXPECT_EQ(ls.block.steadyLoopIterations(), 0u) << label.str();
    }
}

}  // namespace
}  // namespace gecko::sim
