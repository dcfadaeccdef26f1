#include "compiler/checkpoint_pruning.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "compiler/recovery_block.hpp"

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;
using ir::Reg;

int
CheckpointPruning::run(Program& prog, std::vector<RegionSeed>& seeds,
                       int maxSliceInstrs)
{
    // Analyses over the frozen snapshot; all pruning decisions are made
    // before any instruction is removed.
    FlowAnalyses ctx(prog);

    struct Candidate {
        std::size_t ckptIdx;
        RecoverySpec spec;
    };

    std::vector<std::size_t> removals;

    for (std::size_t i = 0; i < prog.size(); ++i) {
        if (prog.at(i).op != Opcode::kBoundary)
            continue;
        int id = prog.at(i).imm;
        RegionSeed& seed = seeds.at(static_cast<std::size_t>(id));

        // The entry sequence is the contiguous kCkpt run ending at i-1.
        std::size_t start = i;
        while (start > 0 && prog.at(start - 1).op == Opcode::kCkpt)
            --start;

        std::map<Reg, Candidate> candidates;
        for (std::size_t c = start; c < i; ++c) {
            Reg r = prog.at(c).rs1;
            auto spec = RecoveryBuilder::build(ctx, i, r, seed.liveIn,
                                               maxSliceInstrs);
            if (spec)
                candidates.emplace(r, Candidate{c, std::move(*spec)});
        }

        // Resolve dependency cycles among candidates (Kahn's algorithm;
        // whatever cannot be ordered is demoted back to a checkpoint).
        std::set<Reg> pruned;
        for (const auto& [r, cand] : candidates)
            pruned.insert(r);

        std::vector<Reg> order;
        bool progress = true;
        while (progress) {
            progress = false;
            for (const auto& [r, cand] : candidates) {
                if (!pruned.count(r) ||
                    std::find(order.begin(), order.end(), r) != order.end())
                    continue;
                bool ready = true;
                for (Reg dep : cand.spec.dependsOn) {
                    if (pruned.count(dep) &&
                        std::find(order.begin(), order.end(), dep) ==
                            order.end()) {
                        ready = false;
                        break;
                    }
                }
                if (ready) {
                    order.push_back(r);
                    progress = true;
                }
            }
        }
        // Leftovers participate in cycles: demote them.
        for (auto it = candidates.begin(); it != candidates.end();) {
            if (std::find(order.begin(), order.end(), it->first) ==
                order.end()) {
                pruned.erase(it->first);
                it = candidates.erase(it);
            } else {
                ++it;
            }
        }

        for (Reg r : order) {
            Candidate& cand = candidates.at(r);
            // Keep only dependencies on registers that are themselves
            // pruned (restored-from-slot registers impose no ordering).
            auto& deps = cand.spec.dependsOn;
            deps.erase(std::remove_if(deps.begin(), deps.end(),
                                      [&pruned](Reg d) {
                                          return pruned.count(d) == 0;
                                      }),
                       deps.end());
            seed.recovery.push_back(std::move(cand.spec));
            removals.push_back(cand.ckptIdx);
        }
    }

    std::sort(removals.begin(), removals.end());
    for (auto it = removals.rbegin(); it != removals.rend(); ++it)
        prog.erase(*it);
    return static_cast<int>(removals.size());
}

}  // namespace gecko::compiler
