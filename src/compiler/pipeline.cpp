#include "compiler/pipeline.hpp"

#include <stdexcept>

#include "compiler/checkpoint_insertion.hpp"
#include "compiler/checkpoint_pruning.hpp"
#include "compiler/region_formation.hpp"
#include "compiler/slot_coloring.hpp"
#include "compiler/wcet.hpp"

namespace gecko::compiler {

using ir::Opcode;
using ir::Program;

const char*
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::kNvp: return "NVP";
      case Scheme::kRatchet: return "Ratchet";
      case Scheme::kGeckoNoPrune: return "GECKO-noprune";
      case Scheme::kGecko: return "GECKO";
    }
    return "?";
}

bool
schemeFromName(const std::string& name, Scheme* out)
{
    for (Scheme s : {Scheme::kNvp, Scheme::kRatchet, Scheme::kGeckoNoPrune,
                     Scheme::kGecko}) {
        if (name == schemeName(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

namespace {

int
countCkpts(const Program& prog)
{
    int n = 0;
    for (std::size_t i = 0; i < prog.size(); ++i)
        if (prog.at(i).op == Opcode::kCkpt)
            ++n;
    return n;
}

/** Worst-case cost of a full entry sequence (16 stores + the commit). */
long
entrySequenceMargin()
{
    ir::Instr ck;
    ck.op = Opcode::kCkpt;
    ir::Instr bd;
    bd.op = Opcode::kBoundary;
    return ir::kNumRegs * ir::cycleCost(ck) + 2 * ir::cycleCost(bd);
}

}  // namespace

CompiledProgram
compile(const Program& prog, Scheme scheme, const PipelineConfig& config)
{
    CompiledProgram out;
    out.scheme = scheme;
    out.stats.originalInstrs = static_cast<int>(prog.size());

    if (scheme == Scheme::kNvp) {
        out.prog = prog;
        out.stats.finalInstrs = static_cast<int>(prog.size());
        return out;
    }

    Program work = prog;
    RegionFormationConfig region_config;
    // Idempotence only strictly requires cutting memory anti-dependences,
    // calls and I/O; regions may span whole loops.  For Ratchet that is
    // the final region structure — which is exactly why the paper
    // observes Ratchet regions "too long to be completed within one
    // capacitor charge cycle" (§VII-B3).  GECKO's WCET pass then bounds
    // every region: counted loops are folded into the longest-path
    // analysis, unbounded (or boundary-containing) loops get header
    // boundaries, and over-budget regions are split.
    region_config.cutLoopHeaders = false;
    // Ratchet works on binaries and cannot disambiguate addresses [87].
    region_config.preciseAliasing = (scheme != Scheme::kRatchet);
    RegionFormation::run(work, region_config);

    if (scheme != Scheme::kRatchet) {
        // Checkpoint stores are inserted after the WCET pass, so budget
        // for the worst-case entry sequence up front, then alternate
        // splitting and anti-dependence repair to a fixpoint (the paper's
        // "loops back to the WCET analysis step").
        long bound = config.maxRegionCycles - entrySequenceMargin();
        if (bound < 32)
            throw std::runtime_error(
                "maxRegionCycles too small for any region");
        for (int round = 0;; ++round) {
            if (round > 32)
                throw std::runtime_error(
                    "WCET/region-formation loop did not converge");
            const int split = Wcet::enforce(work, bound);
            int cut = 0;
            while (true) {
                int k = RegionFormation::cutAntiDependences(work);
                if (k == 0)
                    break;
                cut += k;
            }
            if (split == 0 && cut == 0)
                break;
        }
    }

    if (scheme != Scheme::kRatchet)
        out.minOnPeriodCycles = config.maxRegionCycles;

    std::vector<RegionSeed> seeds = CheckpointInsertion::run(work);
    out.stats.ckptsBeforePruning = countCkpts(work);

    bool prune = (scheme == Scheme::kGecko && config.enablePruning);
    if (prune)
        CheckpointPruning::run(work, seeds, /*maxSliceInstrs=*/16);

    // Clean-checkpoint elimination is the degenerate form of pruning
    // (the "recovery" is a slot the value already sits in), so it is
    // gated with it.
    SlotColoring::Result coloring = SlotColoring::run(
        work, seeds, prune && config.enableCleanElim);

    // Assemble the final region table.
    out.prog = std::move(work);
    out.regions.resize(seeds.size());
    // Ratchet regions may contain whole (boundary-free) loops, so their
    // WCET is unbounded; record -1 there.
    std::vector<std::pair<std::size_t, long>> wcets;
    if (scheme != Scheme::kRatchet)
        wcets = Wcet::analyze(out.prog);

    for (std::size_t i = 0; i < out.prog.size(); ++i) {
        if (out.prog.at(i).op != Opcode::kBoundary)
            continue;
        int id = out.prog.at(i).imm;
        if (id < 0 || static_cast<std::size_t>(id) >= seeds.size())
            throw std::runtime_error("pipeline: unnumbered region boundary");
        RegionInfo& info = out.regions[static_cast<std::size_t>(id)];
        RegionSeed& seed = seeds[static_cast<std::size_t>(id)];
        info.id = id;
        info.boundaryIdx = i;
        info.liveIn = seed.liveIn;
        info.recovery = std::move(seed.recovery);
        info.parentId = seed.parentId;

        std::size_t start = i;
        while (start > 0 && out.prog.at(start - 1).op == Opcode::kCkpt)
            --start;
        info.entryIdx = start;
        for (std::size_t c = start; c < i; ++c) {
            const ir::Instr& ck = out.prog.at(c);
            if (ck.imm < 0)
                throw std::runtime_error("pipeline: uncoloured checkpoint");
            info.ckpts.push_back({ck.rs1, ck.imm});
        }
    }
    for (const InheritedCkpt& entry : coloring.inherited) {
        out.regions[static_cast<std::size_t>(entry.regionId)].ckpts.push_back(
            {entry.reg, entry.slot});
    }

    for (RegionInfo& info : out.regions)
        info.wcetCycles = -1;
    for (const auto& [bidx, cycles] : wcets)
        out.regions[static_cast<std::size_t>(out.prog.at(bidx).imm)]
            .wcetCycles = cycles;

    // Statistics.
    out.stats.cleanEliminated = coloring.cleanEliminated;
    out.stats.numRegions = static_cast<int>(out.regions.size());
    out.stats.ckptsAfterPruning = countCkpts(out.prog);
    for (const RegionInfo& info : out.regions) {
        out.stats.recoveryBlocks += static_cast<int>(info.recovery.size());
        for (const RecoverySpec& spec : info.recovery)
            out.stats.recoveryInstrs += static_cast<int>(spec.code.size());
    }
    out.stats.finalInstrs = static_cast<int>(out.prog.size());
    // Runtime lookup table: per region a resume PC, live-in mask, parent
    // link and table pointer, plus two words per restore entry and one
    // per recovery-block instruction.
    out.stats.lookupTableWords =
        4 * out.stats.numRegions + 2 * out.stats.ckptsAfterPruning +
        out.stats.recoveryInstrs;
    return out;
}

}  // namespace gecko::compiler
