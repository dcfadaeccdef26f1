#include <gtest/gtest.h>

#include "ir/assembler.hpp"
#include "ir/disassembler.hpp"

namespace gecko::ir {
namespace {

TEST(AssemblerTest, ParsesBasicProgram)
{
    const char* src = R"(
; a tiny counter
        movi r1, 10
        movi r2, 0
loop:
        add  r2, r2, r1
        sub  r1, r1, #1
        movi r3, 0
        bne  r1, r3, loop
        out  0, r2
        halt
)";
    Program p = Assembler::assemble("counter", src);
    EXPECT_EQ(p.size(), 8u);
    EXPECT_EQ(p.at(0).op, Opcode::kMovi);
    EXPECT_EQ(p.at(0).imm, 10);
    EXPECT_EQ(p.at(3).op, Opcode::kSub);
    EXPECT_TRUE(p.at(3).useImm);
    EXPECT_EQ(p.labelPos(*p.findLabel("loop")), 2u);
    EXPECT_EQ(p.at(5).op, Opcode::kBne);
}

TEST(AssemblerTest, ParsesMemoryOperands)
{
    Program p = Assembler::assemble("mem", R"(
        load  r1, [r2+8]
        load  r3, [r4]
        store [r5+12], r6
        store [r7], r8
        halt
)");
    EXPECT_EQ(p.at(0).op, Opcode::kLoad);
    EXPECT_EQ(p.at(0).rs1, 2);
    EXPECT_EQ(p.at(0).imm, 8);
    EXPECT_EQ(p.at(1).imm, 0);
    EXPECT_EQ(p.at(2).op, Opcode::kStore);
    EXPECT_EQ(p.at(2).rs1, 5);
    EXPECT_EQ(p.at(2).rs2, 6);
    EXPECT_EQ(p.at(2).imm, 12);
}

TEST(AssemblerTest, ParsesHexAndNegativeImmediates)
{
    Program p = Assembler::assemble("imm", R"(
        movi r1, 0xff
        movi r2, -5
        and  r3, r1, #0x0F
        halt
)");
    EXPECT_EQ(p.at(0).imm, 255);
    EXPECT_EQ(p.at(1).imm, -5);
    EXPECT_EQ(p.at(2).imm, 15);
}

TEST(AssemblerTest, ErrorsCarryLineNumbers)
{
    try {
        Assembler::assemble("bad", "movi r1, 1\nbogus r2\nhalt\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError& e) {
        EXPECT_EQ(e.line, 2);
    }
}

TEST(AssemblerTest, RejectsBadRegister)
{
    EXPECT_THROW(Assembler::assemble("bad", "movi r16, 1\nhalt\n"),
                 AsmError);
    EXPECT_THROW(Assembler::assemble("bad", "movi rx, 1\nhalt\n"),
                 AsmError);
}

TEST(AssemblerTest, RejectsUndefinedLabel)
{
    EXPECT_THROW(Assembler::assemble("bad", "jmp nowhere\nhalt\n"),
                 AsmError);
}

TEST(AssemblerTest, RejectsBranchPastTheLastInstruction)
{
    // `end` is bound after the final instruction: a branch to it would
    // run off the program, and the CFG would index past its blocks.
    EXPECT_THROW(Assembler::assemble(
                     "bad", "movi r1, 0\nbeq r1, r0, end\nhalt\nend:\n"),
                 AsmError);
}

TEST(AssemblerTest, RejectsTrailingTokens)
{
    EXPECT_THROW(Assembler::assemble("bad", "movi r1, 1 r2\nhalt\n"),
                 AsmError);
}

TEST(DisassemblerTest, RoundTripsThroughAssembler)
{
    const char* src = R"(
start:
        movi r1, 3
        movi r9, -1
loop:
        add  r2, r2, r1
        mul  r3, r2, #7
        load r4, [r2+2]
        store [r2+2], r4
        in   r5, 1
        out  0, r5
        blt  r2, r3, loop
        call start
        ret
)";
    Program p1 = Assembler::assemble("rt", src);
    std::string text = disassemble(p1);
    Program p2 = Assembler::assemble("rt2", text);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
        EXPECT_EQ(p1.at(i).op, p2.at(i).op) << "instr " << i;
        EXPECT_EQ(p1.at(i).rd, p2.at(i).rd) << "instr " << i;
        EXPECT_EQ(p1.at(i).rs1, p2.at(i).rs1) << "instr " << i;
        EXPECT_EQ(p1.at(i).rs2, p2.at(i).rs2) << "instr " << i;
        EXPECT_EQ(p1.at(i).imm, p2.at(i).imm) << "instr " << i;
        EXPECT_EQ(p1.at(i).useImm, p2.at(i).useImm) << "instr " << i;
    }
}

}  // namespace
}  // namespace gecko::ir
