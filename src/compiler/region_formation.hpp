#ifndef GECKO_COMPILER_REGION_FORMATION_HPP_
#define GECKO_COMPILER_REGION_FORMATION_HPP_

#include "ir/program.hpp"

/**
 * @file
 * Idempotent region formation (paper §VI-B, following de Kruijf [22] and
 * Ratchet [87]).
 *
 * A region delimited by kBoundary pseudo-ops is idempotent iff it contains
 * no memory anti-dependence (a store overwriting a location a preceding
 * instruction of the same region read) unless the read was preceded by a
 * same-region write to the same location (the WARAW exemption: re-execution
 * recreates the first write before the read sees it).  Loop headers, calls,
 * call targets and I/O operations additionally receive boundaries.
 */

namespace gecko::compiler {

/** Structural boundary placement options. */
struct RegionFormationConfig {
    /// Boundary at every loop header (required for WCET-finite regions).
    bool cutLoopHeaders = true;
    /// See cutAntiDependences; false for the Ratchet baseline.
    bool preciseAliasing = true;
};

/** Region-boundary placement passes. */
class RegionFormation
{
  public:
    /**
     * Insert the structural boundaries (program entry, loop headers,
     * around calls and I/O).  Idempotent: positions already guarded by a
     * boundary are skipped.
     * @return the number of boundaries inserted.
     */
    static int insertStructuralBoundaries(ir::Program& prog,
                                          const RegionFormationConfig& cfg);

    /**
     * One sweep of memory anti-dependence cutting: find stores that
     * overwrite a location read earlier in the same region without WARAW
     * protection, and insert a boundary before each.  Call repeatedly
     * until it returns 0 (each sweep re-analyses the modified program).
     *
     * @param preciseAliasing use the IR-level constant-address alias
     *        analysis.  False models Ratchet's binary-level analysis
     *        [87], where a store conservatively aliases every preceding
     *        load and no WARAW protection can be proven.
     * @return the number of boundaries inserted by this sweep.
     */
    static int cutAntiDependences(ir::Program& prog,
                                  bool preciseAliasing = true);

    /**
     * Run structural placement followed by anti-dependence cutting to a
     * fixpoint.
     */
    static void run(ir::Program& prog, const RegionFormationConfig& cfg = {});
};

}  // namespace gecko::compiler

#endif  // GECKO_COMPILER_REGION_FORMATION_HPP_
