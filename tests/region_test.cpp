#include <gtest/gtest.h>

#include "compiler/region_formation.hpp"
#include "compiler/wcet.hpp"
#include "ir/builder.hpp"

namespace gecko::compiler {
namespace {

using ir::Opcode;
using ir::Program;
using ir::ProgramBuilder;

int
countBoundaries(const Program& p)
{
    int n = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
        if (p.at(i).op == Opcode::kBoundary)
            ++n;
    return n;
}

bool
boundaryBetween(const Program& p, std::size_t a, std::size_t b)
{
    for (std::size_t i = a; i < b; ++i)
        if (p.at(i).op == Opcode::kBoundary)
            return true;
    return false;
}

/** Find the n-th instruction with opcode `op`. */
std::size_t
findOp(const Program& p, Opcode op, int nth = 0)
{
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p.at(i).op == op && nth-- == 0)
            return i;
    }
    return Program::npos;
}

TEST(RegionFormationTest, EntryAndLoopHeaderBoundaries)
{
    ProgramBuilder b("t");
    b.movi(1, 10)
        .label("head")
        .subi(1, 1, 1)
        .movi(2, 0)
        .bne(1, 2, "head")
        .halt();
    Program p = b.take();
    RegionFormation::insertStructuralBoundaries(p, {});

    EXPECT_EQ(p.at(0).op, Opcode::kBoundary);
    // Loop header label must point at a boundary so back edges cross it.
    std::size_t head = p.labelPos(*p.findLabel("head"));
    EXPECT_EQ(p.at(head).op, Opcode::kBoundary);
}

TEST(RegionFormationTest, IoAndHaltBoundaries)
{
    ProgramBuilder b("t");
    b.movi(1, 1)
        .in(2, 0)
        .add(1, 1, 2)
        .out(0, 1)
        .halt();
    Program p = b.take();
    RegionFormation::insertStructuralBoundaries(p, {});

    std::size_t in_pos = findOp(p, Opcode::kIn);
    std::size_t out_pos = findOp(p, Opcode::kOut);
    std::size_t halt_pos = findOp(p, Opcode::kHalt);
    EXPECT_EQ(p.at(in_pos - 1).op, Opcode::kBoundary);
    EXPECT_EQ(p.at(in_pos + 1).op, Opcode::kBoundary);
    EXPECT_EQ(p.at(out_pos - 1).op, Opcode::kBoundary);
    EXPECT_EQ(p.at(halt_pos - 1).op, Opcode::kBoundary);
}

TEST(RegionFormationTest, CallBoundaries)
{
    ProgramBuilder b("t");
    b.movi(1, 1)
        .call("fn")
        .halt()
        .label("fn")
        .ret();
    Program p = b.take();
    RegionFormation::insertStructuralBoundaries(p, {});

    std::size_t call_pos = findOp(p, Opcode::kCall);
    EXPECT_EQ(p.at(call_pos - 1).op, Opcode::kBoundary);
    EXPECT_EQ(p.at(call_pos + 1).op, Opcode::kBoundary);
    std::size_t fn_pos = p.labelPos(*p.findLabel("fn"));
    EXPECT_EQ(p.at(fn_pos).op, Opcode::kBoundary);
}

TEST(RegionFormationTest, CutsWarAntiDependence)
{
    // load @100 then store @100: a WAR that must be cut.
    ProgramBuilder b("t");
    b.movi(1, 100)
        .load(2, 1, 0)
        .addi(2, 2, 1)
        .store(1, 0, 2)
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});

    std::size_t load_pos = findOp(p, Opcode::kLoad);
    std::size_t store_pos = findOp(p, Opcode::kStore);
    EXPECT_TRUE(boundaryBetween(p, load_pos + 1, store_pos));
}

TEST(RegionFormationTest, WarawIsNotCut)
{
    // store @100, load @100, store @100: protected by the first write.
    ProgramBuilder b("t");
    b.movi(1, 100)
        .movi(2, 5)
        .store(1, 0, 2)
        .load(3, 1, 0)
        .addi(3, 3, 1)
        .store(1, 0, 3)
        .halt();
    Program p = b.take();
    Program original = p;
    RegionFormation::run(p, {});

    std::size_t first_store = findOp(p, Opcode::kStore, 0);
    std::size_t second_store = findOp(p, Opcode::kStore, 1);
    EXPECT_FALSE(boundaryBetween(p, first_store + 1, second_store))
        << "WARAW dependence must not be cut";
}

TEST(RegionFormationTest, DisjointAddressesNotCut)
{
    ProgramBuilder b("t");
    b.movi(1, 100)
        .load(2, 1, 0)    // @100
        .store(1, 1, 2)   // @101 — no WAR
        .halt();
    Program p = b.take();
    int before = countBoundaries(p);
    RegionFormation::cutAntiDependences(p);
    EXPECT_EQ(countBoundaries(p), before);
}

TEST(RegionFormationTest, UnknownAddressesCutConservatively)
{
    ProgramBuilder b("t");
    b.in(1, 0)
        .load(2, 1, 0)
        .in(3, 0)
        .store(3, 0, 2)  // unknown store after unknown load: may-WAR
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    std::size_t load_pos = findOp(p, Opcode::kLoad);
    std::size_t store_pos = findOp(p, Opcode::kStore);
    EXPECT_TRUE(boundaryBetween(p, load_pos + 1, store_pos));
}

TEST(RegionFormationTest, AddressRangePast32BitsStillCut)
{
    // r3 = r1 << 30 for r1 in [4, 5] wraps to word 0 (then 2^30), the
    // word the store writes: a range past 2^32 proves nothing disjoint.
    ProgramBuilder b("t");
    b.movi(1, 4)
        .movi(2, 5)
        .movi(7, 0)
        .label("head")
        .muli(3, 1, 1073741824)
        .load(4, 3, 0)
        .addi(4, 4, 1)
        .store(7, 0, 4)
        .addi(1, 1, 1)
        .blt(1, 2, "head")
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    std::size_t load_pos = findOp(p, Opcode::kLoad);
    std::size_t store_pos = findOp(p, Opcode::kStore);
    EXPECT_TRUE(boundaryBetween(p, load_pos + 1, store_pos));
}

TEST(RegionFormationTest, WrappedProductRangeStillCut)
{
    // r4 = r1 * (2^31 - 1)^2 is 0 in the first iteration, the word the
    // store writes; in unbounded arithmetic its range overflows `long`
    // and reads as disjoint from [0, 0].
    ProgramBuilder b("t");
    b.movi(1, 0)
        .movi(2, 4)
        .movi(7, 0)
        .label("head")
        .muli(3, 1, 2147483647)
        .muli(4, 3, 2147483647)
        .load(6, 4, 0)
        .addi(6, 6, 1)
        .store(7, 0, 6)
        .addi(1, 1, 1)
        .blt(1, 2, "head")
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    std::size_t load_pos = findOp(p, Opcode::kLoad);
    std::size_t store_pos = findOp(p, Opcode::kStore);
    EXPECT_TRUE(boundaryBetween(p, load_pos + 1, store_pos));
}

TEST(RegionFormationTest, CrossIterationWarCutByLoopHeader)
{
    // The loop reads then writes the same address across iterations; the
    // loop-header boundary already separates the store (iteration i) from
    // the load (iteration i+1).
    ProgramBuilder b("t");
    b.movi(1, 100)
        .movi(4, 8)
        .label("head")
        .load(2, 1, 0)
        .addi(2, 2, 1)
        .store(1, 0, 2)
        .subi(4, 4, 1)
        .movi(5, 0)
        .bne(4, 5, "head")
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    // In-region WAR (load→store inside one iteration) must still be cut.
    std::size_t load_pos = findOp(p, Opcode::kLoad);
    std::size_t store_pos = findOp(p, Opcode::kStore);
    EXPECT_TRUE(boundaryBetween(p, load_pos + 1, store_pos));
}

TEST(RegionFormationTest, Idempotent)
{
    ProgramBuilder b("t");
    b.movi(1, 100)
        .load(2, 1, 0)
        .store(1, 0, 2)
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    int n = countBoundaries(p);
    RegionFormation::run(p, {});
    EXPECT_EQ(countBoundaries(p), n);
}

TEST(WcetTest, AnalyzeSimpleRegions)
{
    ProgramBuilder b("t");
    b.movi(1, 1).movi(2, 2).add(3, 1, 2).halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    auto regions = Wcet::analyze(p);
    ASSERT_GE(regions.size(), 1u);
    // First region: boundary(2) + movi+movi+add(3) up to the halt
    // boundary.
    EXPECT_EQ(regions[0].second, 5);
}

TEST(WcetTest, LongestPathPicksWorstBranch)
{
    ProgramBuilder b("t");
    b.movi(1, 1)
        .beq(1, 0, "cheap")
        .divu(2, 1, 1)   // expensive side (24 cycles)
        .jmp("join")
        .label("cheap")
        .addi(2, 1, 1)   // cheap side (1 cycle)
        .label("join")
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    auto regions = Wcet::analyze(p);
    // Worst path must include the division.
    long max_wcet = 0;
    for (auto& [idx, c] : regions)
        max_wcet = std::max(max_wcet, c);
    EXPECT_GE(max_wcet, 24);
}

TEST(WcetTest, EnforceSplitsLongRegions)
{
    ProgramBuilder b("t");
    b.movi(1, 0);
    for (int i = 0; i < 100; ++i)
        b.addi(1, 1, 1);
    b.halt();
    Program p = b.take();
    RegionFormation::run(p, {});

    int inserted = Wcet::enforce(p, 30);
    EXPECT_GT(inserted, 0);
    for (auto& [idx, c] : Wcet::analyze(p))
        EXPECT_LE(c, 30);
}

TEST(WcetTest, EnforceIsolatesOversizedInstructions)
{
    // A 24-cycle divide cannot fit a 10-cycle budget; the best feasible
    // result is each oversized instruction alone in its own region.
    ProgramBuilder b("t");
    b.divu(1, 2, 3).divu(1, 2, 3).halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    Wcet::enforce(p, 10);
    int boundaries = countBoundaries(p);
    EXPECT_GE(boundaries, 3);  // entry, between the divides, pre-halt
    // Each remaining region contains at most one real instruction
    // (divu = 24 cycles plus boundary bookkeeping).
    for (auto& [idx, cycles] : Wcet::analyze(p)) {
        (void)idx;
        EXPECT_LE(cycles, 24 + 4);
    }
}

TEST(WcetTest, ThrowsOnBoundaryFreeCycle)
{
    ProgramBuilder b("t");
    b.label("spin").addi(1, 1, 1).jmp("spin");
    Program p = b.take();
    // No structural boundaries inserted: the loop has no boundary.
    EXPECT_THROW(Wcet::wcetFrom(p, 0), std::runtime_error);
}

}  // namespace
}  // namespace gecko::compiler
