#ifndef GECKO_COMPILER_FLOW_ANALYSES_HPP_
#define GECKO_COMPILER_FLOW_ANALYSES_HPP_

#include "compiler/alias_analysis.hpp"
#include "compiler/cfg.hpp"
#include "compiler/dominators.hpp"
#include "compiler/liveness.hpp"
#include "ir/program.hpp"

/**
 * @file
 * The analysis chain of one program snapshot, built once.
 */

namespace gecko::compiler {

/**
 * Cfg → Dominators → ReachingDefs → AliasAnalysis over `prog`, in
 * dependency order.  The members point at one another and at `prog`, so
 * a bundle is never copied or moved, and `prog` must stay unchanged
 * while it is queried.
 */
struct FlowAnalyses {
    explicit FlowAnalyses(const ir::Program& p)
        : prog(p), cfg(Cfg::build(p)), dom(Dominators::build(cfg)),
          rdefs(ReachingDefs::build(p, cfg)),
          aa(AliasAnalysis::build(p, cfg, rdefs))
    {
    }
    FlowAnalyses(const FlowAnalyses&) = delete;
    FlowAnalyses& operator=(const FlowAnalyses&) = delete;

    const ir::Program& prog;
    Cfg cfg;
    Dominators dom;
    ReachingDefs rdefs;
    AliasAnalysis aa;
};

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_FLOW_ANALYSES_HPP_
