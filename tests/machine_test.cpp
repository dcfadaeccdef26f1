#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "compiler/pipeline.hpp"
#include "ir/assembler.hpp"
#include "ir/builder.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/machine.hpp"
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

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadGoldenTest,
                         ::testing::ValuesIn([] {
                             auto v = workloads::benchmarkNames();
                             v.push_back("sensor_loop");
                             v.push_back("sensor_app");
                             v.push_back("xtea");
                             return v;
                         }()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace gecko::sim
