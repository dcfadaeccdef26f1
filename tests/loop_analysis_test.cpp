#include <gtest/gtest.h>

#include "compiler/loop_analysis.hpp"
#include "compiler/region_formation.hpp"
#include "compiler/wcet.hpp"
#include "ir/builder.hpp"

namespace gecko::compiler {
namespace {

using ir::Program;
using ir::ProgramBuilder;

struct Analyses : FlowAnalyses {
    std::vector<NaturalLoop> loops;

    explicit Analyses(const Program& p)
        : FlowAnalyses(p), loops(LoopAnalysis::analyze(*this))
    {
    }
};

TEST(LoopAnalysisTest, CountedUpLoop)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 10)
                    .label("head")
                    .addi(3, 3, 5)
                    .addi(1, 1, 1)
                    .blt(1, 2, "head")
                    .halt()
                    .take();
    Analyses a(p);
    ASSERT_EQ(a.loops.size(), 1u);
    ASSERT_TRUE(a.loops[0].tripBound.has_value());
    EXPECT_EQ(*a.loops[0].tripBound, 10);
    EXPECT_EQ(a.loops[0].counterReg, 1);
    auto range = a.loops[0].counterRange();
    EXPECT_EQ(range.first, 0);
    EXPECT_GE(range.second, 10);
}

TEST(LoopAnalysisTest, CountedDownLoopWithBne)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 64)
                    .movi(2, 0)
                    .label("head")
                    .addi(3, 3, 1)
                    .subi(1, 1, 1)
                    .bne(1, 2, "head")
                    .halt()
                    .take();
    Analyses a(p);
    ASSERT_EQ(a.loops.size(), 1u);
    ASSERT_TRUE(a.loops[0].tripBound.has_value());
    EXPECT_EQ(*a.loops[0].tripBound, 64);
}

TEST(LoopAnalysisTest, StriddenLoop)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 100)
                    .label("head")
                    .addi(1, 1, 7)
                    .blt(1, 2, "head")
                    .halt()
                    .take();
    Analyses a(p);
    ASSERT_TRUE(a.loops[0].tripBound.has_value());
    EXPECT_EQ(*a.loops[0].tripBound, (100 + 6) / 7);
}

TEST(LoopAnalysisTest, DataDependentLoopIsUnbounded)
{
    // The counter comes from an input: no static bound.
    ProgramBuilder b("t");
    Program p = b.in(1, 0)
                    .movi(2, 0)
                    .label("head")
                    .subi(1, 1, 1)
                    .bne(1, 2, "head")
                    .halt()
                    .take();
    Analyses a(p);
    ASSERT_EQ(a.loops.size(), 1u);
    EXPECT_FALSE(a.loops[0].tripBound.has_value());
}

TEST(LoopAnalysisTest, MultipleCounterDefsAreUnbounded)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 10)
                    .label("head")
                    .addi(1, 1, 1)
                    .addi(1, 1, 1)  // second in-loop def of the counter
                    .blt(1, 2, "head")
                    .halt()
                    .take();
    Analyses a(p);
    EXPECT_FALSE(a.loops[0].tripBound.has_value());
}

TEST(LoopAnalysisTest, NestedLoopsInnermostFirst)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 4)
                    .label("outer")
                    .movi(3, 0)
                    .movi(4, 8)
                    .label("inner")
                    .addi(3, 3, 1)
                    .blt(3, 4, "inner")
                    .addi(1, 1, 1)
                    .blt(1, 2, "outer")
                    .halt()
                    .take();
    Analyses a(p);
    ASSERT_EQ(a.loops.size(), 2u);
    // analyze() orders innermost (smaller) first.
    EXPECT_LT(a.loops[0].blocks.size(), a.loops[1].blocks.size());
    EXPECT_EQ(*a.loops[0].tripBound, 8);
    EXPECT_EQ(*a.loops[1].tripBound, 4);
}

TEST(LoopAnalysisTest, InternalBoundaryDetection)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 4)
                    .label("head")
                    .addi(1, 1, 1)
                    .blt(1, 2, "head")
                    .halt()
                    .take();
    Analyses a(p);
    EXPECT_FALSE(LoopAnalysis::hasInternalBoundary(p, a.cfg, a.loops[0]));

    std::size_t head = p.labelPos(*p.findLabel("head"));
    ir::Instr boundary;
    boundary.op = ir::Opcode::kBoundary;
    p.insertBefore(head + 1, boundary);
    Analyses a2(p);
    EXPECT_TRUE(
        LoopAnalysis::hasInternalBoundary(p, a2.cfg, a2.loops[0]));
}

/**
 * The machine compares and wraps 32-bit words, so each wrap loop below
 * runs far past the trip count unbounded arithmetic reads off its latch:
 * it gets no trip bound, and the WCET pass cuts its header.
 */
void
expectWrapLoopUnbounded(Program p)
{
    {
        Analyses a(p);
        ASSERT_EQ(a.loops.size(), 1u);
        EXPECT_FALSE(a.loops[0].tripBound.has_value());
    }
    RegionFormationConfig cfg;
    cfg.cutLoopHeaders = false;
    RegionFormation::run(p, cfg);
    Wcet::enforceLoopInvariant(p);
    std::size_t head = p.labelPos(*p.findLabel("head"));
    EXPECT_EQ(p.at(head).op, ir::Opcode::kBoundary);
}

TEST(LoopAnalysisTest, UnsignedLatchWithNegativeBoundIsUnbounded)
{
    // bltu against 0xffffffff: 2^32 - 1 iterations, not 1.
    ProgramBuilder b("t");
    expectWrapLoopUnbounded(b.movi(1, 0)
                                .movi(2, -1)
                                .label("head")
                                .addi(3, 3, 5)
                                .addi(1, 1, 1)
                                .bltu(1, 2, "head")
                                .halt()
                                .take());
}

TEST(LoopAnalysisTest, UnsignedLatchWithNegativeInitIsUnbounded)
{
    // 0xfffffff0 counts down to 15 under bgeu, not once.
    ProgramBuilder b("t");
    expectWrapLoopUnbounded(b.movi(1, -16)
                                .movi(2, 16)
                                .label("head")
                                .addi(3, 3, 5)
                                .subi(1, 1, 1)
                                .bgeu(1, 2, "head")
                                .halt()
                                .take());
}

TEST(LoopAnalysisTest, UnsignedCounterWrappingBelowZeroIsUnbounded)
{
    // 4 - 5 wraps to 0xffffffff, which is still >= 3 unsigned.
    ProgramBuilder b("t");
    expectWrapLoopUnbounded(b.movi(1, 4)
                                .movi(2, 3)
                                .label("head")
                                .addi(3, 3, 5)
                                .subi(1, 1, 5)
                                .bgeu(1, 2, "head")
                                .halt()
                                .take());
}

TEST(LoopAnalysisTest, CounterOverflowingInt32IsUnbounded)
{
    // The third step wraps the counter negative, still < the bound.
    ProgramBuilder b("t");
    expectWrapLoopUnbounded(b.movi(1, 2147483637)
                                .movi(2, 2147483646)
                                .label("head")
                                .addi(3, 3, 5)
                                .addi(1, 1, 4)
                                .blt(1, 2, "head")
                                .halt()
                                .take());
}

TEST(RangeAnalysisTest, ConstPlusCounterAddress)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 50)
                    .movi(4, 100)  // base
                    .label("head")
                    .add(5, 4, 1)
                    .store(5, 0, 3)  // addr in [100, 150]
                    .addi(1, 1, 1)
                    .blt(1, 2, "head")
                    .halt()
                    .take();
    Analyses a(p);
    RangeAnalysis ranges(p, a.cfg, a.dom, a.rdefs, a.aa, a.loops);

    std::size_t store = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
        if (p.at(i).op == ir::Opcode::kStore)
            store = i;
    auto r = ranges.addrRange(store);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->first, 100);
    EXPECT_GE(r->second, 149);
    EXPECT_LE(r->second, 151);  // one step of slack allowed
}

TEST(RangeAnalysisTest, DisjointArraysProvedByRanges)
{
    // Store into [100,150), load from [400,450): the WAR pass must not
    // cut between them even though indices are loop-variant.
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 50)
                    .movi(4, 400)
                    .movi(6, 100)
                    .label("head")
                    .add(5, 4, 1)
                    .load(3, 5, 0)   // read 400+i
                    .add(5, 6, 1)
                    .store(5, 0, 3)  // write 100+i
                    .addi(1, 1, 1)
                    .blt(1, 2, "head")
                    .halt()
                    .take();
    int before = 0;
    RegionFormationConfig cfg;
    cfg.cutLoopHeaders = false;  // the GECKO pipeline's setting
    RegionFormation::run(p, cfg);
    for (std::size_t i = 0; i < p.size(); ++i)
        if (p.at(i).op == ir::Opcode::kBoundary)
            ++before;
    // Only structural boundaries (entry + pre-halt), no WAR cut.
    EXPECT_EQ(before, 2);
}

TEST(RangeAnalysisTest, OverlappingArraysStillCut)
{
    // Same array read and written with different loop indices: may
    // overlap, so the anti-dependence must be cut.
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 50)
                    .movi(4, 100)
                    .label("head")
                    .add(5, 4, 1)
                    .load(3, 5, 1)   // read 101+i
                    .add(5, 4, 1)
                    .store(5, 0, 3)  // write 100+i — overlaps reads
                    .addi(1, 1, 1)
                    .blt(1, 2, "head")
                    .halt()
                    .take();
    RegionFormationConfig cfg;
    cfg.cutLoopHeaders = false;
    RegionFormation::run(p, cfg);
    int boundaries = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
        if (p.at(i).op == ir::Opcode::kBoundary)
            ++boundaries;
    EXPECT_GT(boundaries, 2);
}

TEST(WcetLoopTest, CountedLoopFoldsIntoWcet)
{
    ProgramBuilder b("t");
    Program p = b.movi(1, 0)
                    .movi(2, 100)
                    .label("head")
                    .addi(3, 3, 1)   // 1 cycle
                    .addi(1, 1, 1)   // 1 cycle
                    .blt(1, 2, "head")  // 2 cycles
                    .halt()
                    .take();
    RegionFormationConfig cfg;
    cfg.cutLoopHeaders = false;
    RegionFormation::run(p, cfg);  // entry + pre-halt boundaries only
    auto regions = Wcet::analyze(p);
    ASSERT_GE(regions.size(), 1u);
    long total = 0;
    for (auto& [idx, c] : regions)
        total = std::max(total, c);
    // 100 iterations x 4 cycles plus prologue: must account for the
    // whole loop, not a single pass.
    EXPECT_GE(total, 400);
    EXPECT_LE(total, 500);
}

TEST(WcetLoopTest, UnboundedLoopGetsHeaderBoundary)
{
    ProgramBuilder b("t");
    Program p = b.in(1, 0)
                    .movi(2, 0)
                    .label("head")
                    .subi(1, 1, 1)
                    .bne(1, 2, "head")
                    .halt()
                    .take();
    RegionFormationConfig cfg;
    cfg.cutLoopHeaders = false;
    RegionFormation::run(p, cfg);
    int inserted = Wcet::enforceLoopInvariant(p);
    EXPECT_GE(inserted, 1);
    std::size_t head = p.labelPos(*p.findLabel("head"));
    EXPECT_EQ(p.at(head).op, ir::Opcode::kBoundary);
    // Now analyzable.
    EXPECT_NO_THROW(Wcet::analyze(p));
}

TEST(WcetLoopTest, EnforceDemotesOversizedLoopToPerIteration)
{
    ProgramBuilder b("t");
    b.movi(1, 0).movi(2, 1000);
    b.label("head");
    for (int i = 0; i < 20; ++i)
        b.addi(3, 3, 1);
    b.addi(1, 1, 1).blt(1, 2, "head").halt();
    Program p = b.take();
    RegionFormationConfig cfg;
    cfg.cutLoopHeaders = false;
    RegionFormation::run(p, cfg);
    // Whole loop ~22k cycles; force 1k-cycle regions.
    Wcet::enforce(p, 1000);
    for (auto& [idx, c] : Wcet::analyze(p))
        EXPECT_LE(c, 1000);
}

}  // namespace
}  // namespace gecko::compiler
