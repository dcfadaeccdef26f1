#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "compiler/checkpoint_insertion.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/region_formation.hpp"
#include "ir/builder.hpp"
#include "ir/disassembler.hpp"
#include "workloads/workloads.hpp"

namespace gecko::compiler {
namespace {

using ir::Opcode;
using ir::Program;
using ir::ProgramBuilder;

TEST(CheckpointInsertionTest, ChecksLiveInsAtBoundaries)
{
    ProgramBuilder b("t");
    b.movi(1, 10)
        .movi(2, 0)
        .label("head")
        .add(2, 2, 1)
        .subi(1, 1, 1)
        .movi(3, 0)
        .bne(1, 3, "head")
        .out(0, 2)
        .halt();
    Program p = b.take();
    RegionFormation::run(p, {});
    auto seeds = CheckpointInsertion::run(p);

    ASSERT_GE(seeds.size(), 2u);
    // The loop-header region must checkpoint the loop-carried registers.
    std::size_t head = p.labelPos(*p.findLabel("head"));
    // The label now points at the first ckpt of the header's entry
    // sequence (inserted before the boundary).
    std::size_t i = head;
    std::set<int> ckpt_regs;
    while (p.at(i).op == Opcode::kCkpt) {
        ckpt_regs.insert(p.at(i).rs1);
        ++i;
    }
    EXPECT_EQ(p.at(i).op, Opcode::kBoundary);
    int id = p.at(i).imm;
    EXPECT_TRUE(ckpt_regs.count(1));
    EXPECT_TRUE(ckpt_regs.count(2));
    EXPECT_TRUE(seeds[static_cast<std::size_t>(id)].liveIn & regBit(1));
    EXPECT_TRUE(seeds[static_cast<std::size_t>(id)].liveIn & regBit(2));
}

TEST(CheckpointInsertionTest, BoundaryIdsAreSequential)
{
    Program p = workloads::build("bitcnt");
    RegionFormation::run(p, {});
    auto seeds = CheckpointInsertion::run(p);
    int expected = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p.at(i).op == Opcode::kBoundary) {
            EXPECT_EQ(p.at(i).imm, expected++);
        }
    }
    EXPECT_EQ(static_cast<std::size_t>(expected), seeds.size());
}

TEST(PipelineTest, NvpIsUntouched)
{
    Program p = workloads::build("crc16");
    std::size_t n = p.size();
    CompiledProgram out = compile(p, Scheme::kNvp);
    EXPECT_EQ(out.prog.size(), n);
    EXPECT_TRUE(out.regions.empty());
    EXPECT_EQ(out.stats.ckptsAfterPruning, 0);
}

class PipelineWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PipelineWorkloadTest, GeckoPipelineInvariants)
{
    CompiledProgram out =
        compile(workloads::build(GetParam()), Scheme::kGecko);

    EXPECT_GT(out.regions.size(), 0u);
    EXPECT_EQ(out.prog.validate(), "");

    // Every boundary numbered and matching its region record.
    std::set<int> seen;
    for (std::size_t i = 0; i < out.prog.size(); ++i) {
        const ir::Instr& ins = out.prog.at(i);
        if (ins.op == Opcode::kBoundary) {
            ASSERT_GE(ins.imm, 0);
            ASSERT_LT(static_cast<std::size_t>(ins.imm),
                      out.regions.size());
            EXPECT_TRUE(seen.insert(ins.imm).second)
                << "duplicate region id";
            EXPECT_EQ(out.regions[static_cast<std::size_t>(ins.imm)]
                          .boundaryIdx,
                      i);
        }
        if (ins.op == Opcode::kCkpt) {
            EXPECT_GE(ins.imm, 0);
            EXPECT_LT(ins.imm, kMaxSlots);
        }
    }
    EXPECT_EQ(seen.size(), out.regions.size());

    // Every region: live-in = checkpointed ∪ recovered.
    for (const RegionInfo& info : out.regions) {
        RegMask covered = 0;
        for (const CkptSpec& ck : info.ckpts)
            covered |= regBit(ck.reg);
        for (const RecoverySpec& rs : info.recovery)
            covered |= regBit(rs.reg);
        if (info.parentId >= 0) {
            const RegionInfo& parent =
                out.regions[static_cast<std::size_t>(info.parentId)];
            for (const CkptSpec& ck : parent.ckpts)
                covered |= regBit(ck.reg);
            for (const RecoverySpec& rs : parent.recovery)
                covered |= regBit(rs.reg);
        }
        EXPECT_EQ(covered & info.liveIn, info.liveIn)
            << "region " << info.id << " cannot restore all live-ins";
    }

    // Pruning must remove something on nontrivial programs, and stats
    // must be consistent.
    EXPECT_EQ(out.stats.numRegions,
              static_cast<int>(out.regions.size()));
    EXPECT_LE(out.stats.ckptsAfterPruning + 0,
              out.stats.ckptsBeforePruning +
                  out.stats.numRegions * 16 /* colouring fix-ups */);
    EXPECT_GE(out.stats.recoveryBlocks, 0);
}

TEST_P(PipelineWorkloadTest, WcetBoundHolds)
{
    PipelineConfig config;
    config.maxRegionCycles = 20000;
    CompiledProgram out =
        compile(workloads::build(GetParam()), Scheme::kGecko, config);
    for (const RegionInfo& info : out.regions) {
        EXPECT_LE(info.wcetCycles, config.maxRegionCycles)
            << "region " << info.id << " exceeds the power-on budget";
    }
}

TEST_P(PipelineWorkloadTest, PruningReducesCheckpoints)
{
    CompiledProgram pruned =
        compile(workloads::build(GetParam()), Scheme::kGecko);
    CompiledProgram unpruned =
        compile(workloads::build(GetParam()), Scheme::kGeckoNoPrune);
    EXPECT_LE(pruned.stats.ckptsAfterPruning,
              unpruned.stats.ckptsAfterPruning);
    if (pruned.stats.ckptsBeforePruning > 2) {
        EXPECT_GT(pruned.stats.recoveryBlocks +
                      pruned.stats.cleanEliminated,
                  0)
            << "expected at least one prunable checkpoint";
    }
}

TEST_P(PipelineWorkloadTest, RatchetHasNoRecoveryBlocks)
{
    CompiledProgram out =
        compile(workloads::build(GetParam()), Scheme::kRatchet);
    EXPECT_EQ(out.stats.recoveryBlocks, 0);
    // Nothing pruned; colouring conflict fix-ups may only add stores.
    EXPECT_GE(out.stats.ckptsAfterPruning, out.stats.ckptsBeforePruning);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PipelineWorkloadTest,
                         ::testing::ValuesIn(workloads::benchmarkNames()),
                         [](const auto& info) { return info.param; });

TEST(PipelineTest, CodeSizeOverheadIsBounded)
{
    // §VII-C reports ~6% binary overhead on average; allow generous slack
    // but catch runaway instrumentation.
    std::vector<double> overheads;
    for (const std::string& name : workloads::benchmarkNames()) {
        CompiledProgram out =
            compile(workloads::build(name), Scheme::kGecko);
        overheads.push_back(out.stats.codeSizeOverhead());
    }
    for (double o : overheads)
        EXPECT_LT(o, 1.5);
}

/** FNV-1a 64 over every field a compile emits. */
class CompileDigest
{
  public:
    void
    add(std::int64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= static_cast<std::uint64_t>(v >> (8 * byte)) & 0xffu;
            hash_ *= 1099511628211ull;
        }
    }

    void
    add(const std::string& s)
    {
        add(static_cast<std::int64_t>(s.size()));
        for (char c : s) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 1099511628211ull;
        }
    }

    void
    add(const ir::Instr& ins)
    {
        add(static_cast<std::int64_t>(ins.op));
        add(ins.rd);
        add(ins.rs1);
        add(ins.rs2);
        add(ins.useImm);
        add(ins.imm);
        add(ins.target);
    }

    void
    add(const CompiledProgram& c)
    {
        add(static_cast<std::int64_t>(c.scheme));
        add(static_cast<std::int64_t>(c.prog.size()));
        for (const ir::Instr& ins : c.prog.code())
            add(ins);
        // Label bindings and branch targets, by name.
        add(ir::disassemble(c.prog));
        add(static_cast<std::int64_t>(c.regions.size()));
        for (const RegionInfo& r : c.regions) {
            add(r.id);
            add(static_cast<std::int64_t>(r.entryIdx));
            add(static_cast<std::int64_t>(r.boundaryIdx));
            add(r.liveIn);
            add(r.parentId);
            add(r.wcetCycles);
            add(static_cast<std::int64_t>(r.ckpts.size()));
            for (const CkptSpec& ck : r.ckpts) {
                add(ck.reg);
                add(ck.slot);
            }
            add(static_cast<std::int64_t>(r.recovery.size()));
            for (const RecoverySpec& rs : r.recovery) {
                add(rs.reg);
                add(static_cast<std::int64_t>(rs.code.size()));
                for (const ir::Instr& ins : rs.code)
                    add(ins);
                add(static_cast<std::int64_t>(rs.dependsOn.size()));
                for (ir::Reg d : rs.dependsOn)
                    add(d);
            }
        }
        const CompileStats& s = c.stats;
        for (int v : {s.numRegions, s.ckptsBeforePruning,
                      s.ckptsAfterPruning, s.recoveryBlocks,
                      s.recoveryInstrs, s.cleanEliminated, s.originalInstrs,
                      s.finalInstrs, s.lookupTableWords})
            add(v);
        add(c.minOnPeriodCycles);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

/**
 * Every workload compiled under every configuration the tree uses:
 * NVP and Ratchet at the default config, GECKO-noprune and GECKO at
 * each region budget a bench binary or test passes, and GECKO under
 * ablation_pruning's two switches.  One digest per configuration folds
 * the 14 workloads' compiles in order; a compile that throws digests
 * its message.  The pins were recorded before the flow analyses moved
 * onto the shared solver, so a compiler change that alters any emitted
 * byte fails here.
 */
TEST(PipelineTest, CompiledProgramsArePinned)
{
    const std::vector<std::string> workloads = {
        "basicmath", "bitcnt",       "blink",       "crc16",
        "crc32",     "dhrystone",    "dijkstra",    "fft",
        "fir",       "qsort",        "stringsearch", "sensor_loop",
        "sensor_app", "xtea"};
    struct Config {
        std::string label;
        Scheme scheme;
        PipelineConfig pipeline;
    };
    std::vector<Config> configs = {{"NVP", Scheme::kNvp, {}},
                                   {"Ratchet", Scheme::kRatchet, {}}};
    for (long budget : {600L, 2000L, 5000L, 6000L, 8000L, 10000L, 20000L,
                        50000L, 60000L}) {
        PipelineConfig pc;
        pc.maxRegionCycles = budget;
        configs.push_back({"GECKO-noprune@" + std::to_string(budget),
                           Scheme::kGeckoNoPrune, pc});
        configs.push_back(
            {"GECKO@" + std::to_string(budget), Scheme::kGecko, pc});
    }
    PipelineConfig no_pruning;
    no_pruning.enablePruning = false;
    no_pruning.enableCleanElim = false;
    configs.push_back({"GECKO/no-pruning", Scheme::kGecko, no_pruning});
    PipelineConfig no_clean;
    no_clean.enableCleanElim = false;
    configs.push_back({"GECKO/no-clean-elim", Scheme::kGecko, no_clean});

    const std::map<std::string, std::uint64_t> pinned = {
        {"NVP", 4284715374408209551ull},
        {"Ratchet", 15881876635809427485ull},
        {"GECKO-noprune@600", 11510998725962298322ull},
        {"GECKO@600", 13393402435654984179ull},
        {"GECKO-noprune@2000", 1064895474187079933ull},
        {"GECKO@2000", 15724099469994653895ull},
        {"GECKO-noprune@5000", 17751759953682891210ull},
        {"GECKO@5000", 10196123263937060387ull},
        {"GECKO-noprune@6000", 2862666722666577583ull},
        {"GECKO@6000", 14486771848889368508ull},
        {"GECKO-noprune@8000", 12872916268101570911ull},
        {"GECKO@8000", 17271462660473174156ull},
        {"GECKO-noprune@10000", 16642183634417781576ull},
        {"GECKO@10000", 17023706281534548244ull},
        {"GECKO-noprune@20000", 18357093577970632498ull},
        {"GECKO@20000", 17664594717605780702ull},
        {"GECKO-noprune@50000", 16317621979603841634ull},
        {"GECKO@50000", 10322638593270836084ull},
        {"GECKO-noprune@60000", 9762636326220013633ull},
        {"GECKO@60000", 13250155587617749807ull},
        {"GECKO/no-pruning", 10870592477059378406ull},
        {"GECKO/no-clean-elim", 10933482300943580614ull},
    };

    for (const Config& config : configs) {
        CompileDigest digest;
        for (const std::string& name : workloads) {
            digest.add(name);
            try {
                digest.add(compile(workloads::build(name), config.scheme,
                                   config.pipeline));
            } catch (const std::exception& e) {
                digest.add(std::string("throws: ") + e.what());
            }
        }
        auto it = pinned.find(config.label);
        EXPECT_EQ(digest.value(), it == pinned.end() ? 0 : it->second)
            << config.label;
    }
}

}  // namespace
}  // namespace gecko::compiler
