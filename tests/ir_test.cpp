#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/instr.hpp"
#include "ir/program.hpp"

namespace gecko::ir {
namespace {

TEST(InstrTest, OpcodePredicates)
{
    EXPECT_TRUE(isCondBranch(Opcode::kBeq));
    EXPECT_TRUE(isCondBranch(Opcode::kBgeu));
    EXPECT_FALSE(isCondBranch(Opcode::kJmp));
    EXPECT_TRUE(isUncondTransfer(Opcode::kJmp));
    EXPECT_TRUE(isUncondTransfer(Opcode::kHalt));
    EXPECT_FALSE(isUncondTransfer(Opcode::kAdd));
    EXPECT_TRUE(isTerminator(Opcode::kRet));
    EXPECT_TRUE(isBinaryAlu(Opcode::kXor));
    EXPECT_FALSE(isBinaryAlu(Opcode::kNot));
    EXPECT_TRUE(isUnaryAlu(Opcode::kNeg));
}

TEST(InstrTest, RegsReadAndWritten)
{
    Instr add;
    add.op = Opcode::kAdd;
    add.rd = 1;
    add.rs1 = 2;
    add.rs2 = 3;
    EXPECT_TRUE(writesReg(add));
    EXPECT_EQ(regsRead(add), (std::vector<Reg>{2, 3}));

    add.useImm = true;
    EXPECT_EQ(regsRead(add), (std::vector<Reg>{2}));

    Instr store;
    store.op = Opcode::kStore;
    store.rs1 = 4;
    store.rs2 = 5;
    EXPECT_FALSE(writesReg(store));
    EXPECT_EQ(regsRead(store), (std::vector<Reg>{4, 5}));

    Instr call;
    call.op = Opcode::kCall;
    EXPECT_TRUE(writesReg(call));

    Instr ret;
    ret.op = Opcode::kRet;
    EXPECT_EQ(regsRead(ret), (std::vector<Reg>{kLinkReg}));

    Instr ckpt;
    ckpt.op = Opcode::kCkpt;
    ckpt.rs1 = 7;
    EXPECT_EQ(regsRead(ckpt), (std::vector<Reg>{7}));
    EXPECT_FALSE(writesReg(ckpt));
}

TEST(InstrTest, EvalBinarySemantics)
{
    EXPECT_EQ(evalBinary(Opcode::kAdd, 0xffffffffu, 1u), 0u);  // wraps
    EXPECT_EQ(evalBinary(Opcode::kSub, 0u, 1u), 0xffffffffu);
    EXPECT_EQ(evalBinary(Opcode::kMul, 3u, 5u), 15u);
    EXPECT_EQ(evalBinary(Opcode::kDivu, 7u, 2u), 3u);
    EXPECT_EQ(evalBinary(Opcode::kDivu, 7u, 0u), 0xffffffffu);
    EXPECT_EQ(evalBinary(Opcode::kRemu, 7u, 0u), 7u);
    EXPECT_EQ(evalBinary(Opcode::kShl, 1u, 33u), 2u);  // amount masked
    EXPECT_EQ(evalBinary(Opcode::kShr, 0x80000000u, 31u), 1u);
    // The rules are constexpr, so they also hold at compile time.
    static_assert(evalBinary(Opcode::kDivu, 7u, 0u) == 0xffffffffu);
    static_assert(evalBinary(Opcode::kShr, 0x80000000u, 33u) == 0x40000000u);
    static_assert(evalUnary(Opcode::kNeg, 1u) == 0xffffffffu);
}

TEST(InstrTest, EvalBranchSemantics)
{
    EXPECT_TRUE(evalBranch(Opcode::kBeq, 5, 5));
    EXPECT_TRUE(evalBranch(Opcode::kBne, 5, 6));
    // Signed comparison: 0xffffffff is -1.
    EXPECT_TRUE(evalBranch(Opcode::kBlt, 0xffffffffu, 0u));
    EXPECT_FALSE(evalBranch(Opcode::kBltu, 0xffffffffu, 0u));
    EXPECT_TRUE(evalBranch(Opcode::kBgeu, 0xffffffffu, 0u));
    EXPECT_TRUE(evalBranch(Opcode::kBge, 0u, 0xffffffffu));
    static_assert(evalBranch(Opcode::kBlt, 0xffffffffu, 0u));
}

TEST(InstrTest, CycleCostsDistinguishMemoryFromAlu)
{
    Instr alu;
    alu.op = Opcode::kAdd;
    Instr load;
    load.op = Opcode::kLoad;
    Instr store;
    store.op = Opcode::kStore;
    EXPECT_LT(cycleCost(alu), cycleCost(load));
    EXPECT_LE(cycleCost(load), cycleCost(store));
    Instr div;
    div.op = Opcode::kDivu;
    EXPECT_GT(cycleCost(div), cycleCost(store));
}

TEST(ProgramTest, LabelsTrackInsertionsAndErasures)
{
    Program p("t");
    Instr nop;
    p.append(nop);
    p.append(nop);
    LabelId label = p.internLabel("mid");
    p.bindLabel(label, 1);

    // Insertion before the label position, default mode: the label keeps
    // pointing at the original instruction.
    p.insertBefore(1, nop, /*before_label=*/false);
    EXPECT_EQ(p.labelPos(label), 2u);

    // before_label mode: the label moves onto the inserted instruction.
    p.insertBefore(2, nop, /*before_label=*/true);
    EXPECT_EQ(p.labelPos(label), 2u);

    p.erase(0);
    EXPECT_EQ(p.labelPos(label), 1u);
    // Erasing exactly at the label: label stays, pointing at successor.
    p.erase(1);
    EXPECT_EQ(p.labelPos(label), 1u);
}

TEST(ProgramTest, ValidateCatchesProblems)
{
    Program p("t");
    Instr b;
    b.op = Opcode::kBeq;
    b.target = p.internLabel("nowhere");
    p.append(b);
    EXPECT_NE(p.validate(), "");  // unbound label

    Program q("t2");
    Instr add;
    add.op = Opcode::kAdd;
    q.append(add);
    EXPECT_NE(q.validate(), "");  // falls off the end

    Program r("t3");
    Instr halt;
    halt.op = Opcode::kHalt;
    r.append(halt);
    EXPECT_EQ(r.validate(), "");
}

TEST(BuilderTest, BuildsValidProgram)
{
    ProgramBuilder b("sum");
    b.movi(1, 0)
        .movi(2, 10)
        .label("loop")
        .add(1, 1, 2)
        .subi(2, 2, 1)
        .movi(3, 0)
        .bne(2, 3, "loop")
        .halt();
    Program p = b.take();
    EXPECT_EQ(p.validate(), "");
    EXPECT_EQ(p.size(), 7u);
    EXPECT_EQ(p.labelPos(*p.findLabel("loop")), 2u);
}

TEST(BuilderTest, DuplicateLabelThrows)
{
    ProgramBuilder b("dup");
    b.label("x");
    EXPECT_THROW(b.label("x"), std::runtime_error);
}

TEST(BuilderTest, UnboundLabelThrowsOnTake)
{
    ProgramBuilder b("bad");
    b.jmp("missing");
    EXPECT_THROW(b.take(), std::runtime_error);
}

TEST(ProgramTest, MakeLabelAtGeneratesUniqueNames)
{
    Program p("t");
    Instr nop;
    p.append(nop);
    LabelId a = p.makeLabelAt(0);
    LabelId b = p.makeLabelAt(0);
    EXPECT_NE(p.labelName(a), p.labelName(b));
}

}  // namespace
}  // namespace gecko::ir
