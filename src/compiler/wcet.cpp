#include "compiler/wcet.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "compiler/loop_analysis.hpp"

namespace gecko::compiler {

using ir::Instr;
using ir::Opcode;
using ir::Program;

namespace {

/**
 * Shared analysis context for one program snapshot.  Paths follow
 * Program::successors: a kCall continues into the callee, and walking
 * its fall-through too is sound for the region-local longest path
 * because the return point carries its own boundary.
 */
class WcetContext
{
  public:
    explicit WcetContext(const Program& prog)
        : prog_(prog), flow_(prog), cfg_(flow_.cfg),
          loops_(LoopAnalysis::analyze(flow_)),
          extra_(prog.size(), 0), memo_(prog.size(), kUnvisited)
    {
        buildSummaries();
    }
    // `cfg_` refers to the context's own `flow_`.
    WcetContext(const WcetContext&) = delete;
    WcetContext& operator=(const WcetContext&) = delete;

    const std::vector<NaturalLoop>& loops() const { return loops_; }
    const Cfg& cfg() const { return cfg_; }

    /** Is `loop` summarized (boundary-free, bounded)? */
    bool summarized(std::size_t loop_idx) const
    {
        return summarized_[loop_idx];
    }

    /** Does `loop` satisfy the invariant (summarized or header-cut)? */
    bool needsHeaderBoundary(const NaturalLoop& loop) const
    {
        if (LoopAnalysis::hasInternalBoundary(prog_, cfg_, loop)) {
            std::size_t h = cfg_.block(loop.header).first;
            return prog_.at(h).op != Opcode::kBoundary;
        }
        return !loop.tripBound.has_value();
    }

    /** Extra (loop-summary) cost charged at instruction `i`. */
    long extra(std::size_t i) const { return extra_[i]; }

    /** Is edge (i, s) a cut back edge of a summarized loop? */
    bool isCut(std::size_t i, std::size_t s) const
    {
        return cutEdges_.count({i, s}) != 0;
    }

    /**
     * Longest acyclic path from `i` to the next boundary, with
     * summarized loops folded into their headers' extra cost.
     */
    long
    wcetFrom(std::size_t i)
    {
        if (prog_.at(i).op == Opcode::kBoundary)
            return 0;
        long& slot = memo_[i];
        if (slot == kOpen)
            throw std::runtime_error(
                "WCET: unbounded boundary-free cycle "
                "(run Wcet::enforceLoopInvariant first)");
        if (slot != kUnvisited)
            return slot;
        slot = kOpen;
        long best = 0;
        for (std::size_t s : prog_.successors(i)) {
            if (cutEdges_.count({i, s}))
                continue;
            best = std::max(best, wcetFrom(s));
        }
        slot = ir::cycleCost(prog_.at(i)) + extra_[i] + best;
        return slot;
    }

  private:
    static constexpr long kUnvisited = -1;
    static constexpr long kOpen = -2;

    void
    buildSummaries()
    {
        summarized_.assign(loops_.size(), false);
        // Collect cut edges and extra costs, innermost loop first (the
        // analyze() order), so outer iteration costs see inner extras.
        for (std::size_t li = 0; li < loops_.size(); ++li) {
            const NaturalLoop& loop = loops_[li];
            if (LoopAnalysis::hasInternalBoundary(prog_, cfg_, loop))
                continue;  // cycles cross the boundary; nothing to fold
            if (!loop.tripBound)
                continue;  // invariant enforcement will cut the header
            summarized_[li] = true;
            std::size_t header = cfg_.block(loop.header).first;
            // Cut every back edge (latch-last -> header-first).
            for (BlockId latch : loop.latches)
                cutEdges_.insert({cfg_.block(latch).last, header});
            long iter = iterationCost(loop);
            extra_[header] += (*loop.tripBound - 1) * iter;
        }
    }

    /**
     * Longest single-iteration path: header to any in-loop dead end
     * (normally a latch), back edges cut, inner extras included.
     */
    long
    iterationCost(const NaturalLoop& loop)
    {
        std::size_t header = cfg_.block(loop.header).first;
        std::map<std::size_t, long> memo;
        auto dfs = [&](auto&& self, std::size_t i) -> long {
            auto it = memo.find(i);
            if (it != memo.end()) {
                if (it->second == kOpen)
                    throw std::runtime_error(
                        "WCET: cycle inside summarized loop");
                return it->second;
            }
            memo[i] = kOpen;
            long best = 0;
            for (std::size_t s : prog_.successors(i)) {
                if (s == header)
                    continue;  // own back edge
                if (cutEdges_.count({i, s}))
                    continue;  // inner (already summarized) back edge
                if (!loop.contains(cfg_.blockOf(s)))
                    continue;  // exit edge
                best = std::max(best, self(self, s));
            }
            long cost = ir::cycleCost(prog_.at(i)) + extra_[i] + best;
            memo[i] = cost;
            return cost;
        };
        return dfs(dfs, header);
    }

    const Program& prog_;
    FlowAnalyses flow_;
    const Cfg& cfg_;
    std::vector<NaturalLoop> loops_;
    std::vector<bool> summarized_;
    std::set<std::pair<std::size_t, std::size_t>> cutEdges_;
    std::vector<long> extra_;
    std::vector<long> memo_;
};

/**
 * Insert a header boundary before every loop of `ctx`'s program that
 * needs one, in one pass (highest index first, so the others stay put);
 * `ctx` describes the program as it was.
 * @return the number of boundaries inserted.
 */
int
insertLoopHeaders(const WcetContext& ctx, Program& prog)
{
    std::set<std::size_t> headers;
    for (const NaturalLoop& loop : ctx.loops())
        if (ctx.needsHeaderBoundary(loop))
            headers.insert(ctx.cfg().block(loop.header).first);
    for (auto it = headers.rbegin(); it != headers.rend(); ++it) {
        Instr boundary;
        boundary.op = Opcode::kBoundary;
        boundary.imm = -1;
        prog.insertBefore(*it, boundary, /*before_label=*/true);
    }
    return static_cast<int>(headers.size());
}

}  // namespace

long
Wcet::wcetFrom(const Program& prog, std::size_t idx)
{
    WcetContext ctx(prog);
    return ctx.wcetFrom(idx);
}

std::vector<std::pair<std::size_t, long>>
Wcet::analyze(const Program& prog)
{
    WcetContext ctx(prog);
    std::vector<std::pair<std::size_t, long>> result;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        if (prog.at(i).op != Opcode::kBoundary)
            continue;
        long cost = ir::cycleCost(prog.at(i));
        if (i + 1 < prog.size())
            cost += ctx.wcetFrom(i + 1);
        result.emplace_back(i, cost);
    }
    return result;
}

int
Wcet::enforceLoopInvariant(Program& prog)
{
    int inserted = 0;
    // Header insertions can make outer loops boundary-containing, so
    // iterate to a fixpoint.
    for (int round = 0; round < 64; ++round) {
        const WcetContext ctx(prog);
        const int headers = insertLoopHeaders(ctx, prog);
        if (headers == 0)
            return inserted;
        inserted += headers;
    }
    throw std::runtime_error("WCET: loop invariant did not converge");
}

int
Wcet::enforce(Program& prog, long bound)
{
    int inserted = 0;
    const int max_rounds = static_cast<int>(prog.size()) * 4 + 64;
    for (int round = 0; round < max_rounds; ++round) {
        // The loop invariant first: a round that inserts loop headers
        // analyzes the changed program afresh, and one that inserts none
        // splits on the context it built.
        WcetContext ctx(prog);
        if (const int headers = insertLoopHeaders(ctx, prog)) {
            inserted += headers;
            continue;
        }

        // Find the worst splittable region.  A region that is already a
        // single instruction (e.g. one I/O transaction, which the ISA
        // treats as atomic) cannot be subdivided; it defines the floor
        // of any feasible budget and is skipped.
        std::size_t worst_boundary = Program::npos;
        long worst = bound;
        for (std::size_t i = 0; i < prog.size(); ++i) {
            if (prog.at(i).op != Opcode::kBoundary)
                continue;
            long cost = ir::cycleCost(prog.at(i));
            if (i + 1 < prog.size())
                cost += ctx.wcetFrom(i + 1);
            bool single = i + 2 >= prog.size() ||
                          prog.at(i + 1).op == Opcode::kBoundary ||
                          prog.at(i + 2).op == Opcode::kBoundary ||
                          ir::isUncondTransfer(prog.at(i + 1).op);
            if (cost > worst && !single) {
                worst = cost;
                worst_boundary = i;
            }
        }
        if (worst_boundary == Program::npos)
            return inserted;

        // Preferred split: demote the costliest summarized loop reachable
        // in this region to per-iteration regions.
        std::set<std::size_t> seen;
        std::vector<std::size_t> stack{worst_boundary + 1};
        std::size_t best_header = Program::npos;
        long best_extra = 0;
        while (!stack.empty()) {
            std::size_t i = stack.back();
            stack.pop_back();
            if (!seen.insert(i).second)
                continue;
            if (prog.at(i).op == Opcode::kBoundary)
                continue;
            if (ctx.extra(i) > best_extra) {
                best_extra = ctx.extra(i);
                best_header = i;
            }
            for (std::size_t s : prog.successors(i))
                stack.push_back(s);
        }
        Instr boundary;
        boundary.op = Opcode::kBoundary;
        boundary.imm = -1;
        if (best_header != Program::npos) {
            prog.insertBefore(best_header, boundary, /*before_label=*/true);
            ++inserted;
            continue;
        }

        // Straight-line split: walk the longest path and cut once the
        // accumulated cost passes half the bound.
        long budget = std::max<long>(bound / 2, 1);
        std::size_t pos = worst_boundary + 1;
        long acc = ir::cycleCost(prog.at(worst_boundary));
        bool advanced = false;
        while (true) {
            const Instr& ins = prog.at(pos);
            long cost = ir::cycleCost(ins) + ctx.extra(pos);
            if (advanced && acc + cost > budget)
                break;
            if (cost > bound) {
                // An atomic instruction larger than the budget: isolate
                // it in its own region (the feasible minimum).
                if (!advanced)
                    ++pos;
                advanced = true;
                break;
            }
            acc += cost;
            advanced = true;
            std::size_t best = Program::npos;
            long best_cost = -1;
            for (std::size_t s : prog.successors(pos)) {
                if (ctx.isCut(pos, s))
                    continue;
                long c = ctx.wcetFrom(s);
                if (c > best_cost) {
                    best_cost = c;
                    best = s;
                }
            }
            if (best == Program::npos ||
                prog.at(best).op == Opcode::kBoundary)
                break;
            pos = best;
        }
        if (!advanced)
            throw std::runtime_error(
                "WCET: region budget too small to make progress");
        prog.insertBefore(pos, boundary, /*before_label=*/true);
        ++inserted;
    }
    throw std::runtime_error("WCET: region splitting did not converge");
}

}  // namespace gecko::compiler
