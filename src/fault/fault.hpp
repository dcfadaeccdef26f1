#ifndef GECKO_FAULT_FAULT_HPP_
#define GECKO_FAULT_FAULT_HPP_

#include <cstdint>
#include <string>

#include "compiler/pipeline.hpp"
#include "sim/intermittent_sim.hpp"

/**
 * @file
 * Core types of the deterministic fault-injection campaign.
 *
 * A *case* is one victim run with one injected fault, fully described by
 * (workload, scheme, injector, seed): every injection parameter — where
 * the fault lands, which bit flips, when the monitor sticks — derives
 * from the case seed through exp::Rng, so a case replays bit-identically
 * from its corpus line alone.
 *
 * Fault model (DESIGN.md "Fault model"): physical disturbance of NVM
 * cells and the analog sensing path — single/multi-bit flips confined to
 * one word, torn multi-word writes, stale data reappearing, monitor
 * stuck-at/offset faults, harvester brownout bursts.  An adversary who
 * can forge CRCs or corrupt both copies of a guarded pair coherently is
 * out of scope.
 */

namespace gecko::fault {

/** The injectable fault classes. */
enum class InjectorKind {
    /// One bit flipped in checkpoint storage (JIT image word or slot).
    kBitFlip,
    /// 2-3 bits flipped, confined to one checkpoint-storage word.
    kMultiBitFlip,
    /// JIT checkpoint write truncated at a chosen word offset.
    kTornWrite,
    /// ACK word disturbed while the image is stale (defeats the plain
    /// ACK-toggle freshness signal; the CRC covers the ACK).
    kAckCorrupt,
    /// A complete, internally consistent but older image substituted at
    /// restore time (value-only for guarded slots: coherent pair forgery
    /// is out of scope).
    kStaleImage,
    /// Voltage monitor stuck at a fixed (high) reading: backup crossings
    /// are never seen, every outage is a hard death.
    kMonitorStuck,
    /// Voltage monitor reads with a constant positive offset: backup
    /// crossings detected late or not at all.
    kMonitorOffset,
    /// Harvester brownout bursts: the source collapses for short seeded
    /// windows; checkpoint saves inside a burst fail transiently
    /// (exercises the bounded-retry/backoff path).
    kBrownoutBurst,
    /// Sustained EMI tone bursts forging backup/wake signals in the
    /// monitor's view (the paper's attack).  Guarded schemes run with
    /// the adaptive defense controller enabled: a detected-then-survived
    /// attack is a pass.
    kEmiBurst,
    /// EMFI glitch skips one instruction fetch: the PC advances without
    /// the instruction executing (Moro-style fault model).  The glitch
    /// window also masks the next backup signal, so the checkpoint that
    /// would capture the corrupted state is skipped for every scheme.
    kInstrSkip,
    /// EMFI glitch corrupts the fetched opcode; modelled as a wild
    /// control transfer to a seeded in-range PC.
    kOpcodeCorrupt,
    /// EMFI glitch flips 1-2 bits of an in-flight operand: a seeded
    /// architectural register is disturbed between instructions.
    kOperandFlip,
};

inline constexpr int kInjectorKinds = 12;

const char* injectorName(InjectorKind kind);
bool injectorFromName(const std::string& name, InjectorKind* out);

/** Sim-level injectors run the full IntermittentSim; the rest use the
 *  lighter machine-level harness. */
inline bool
isSimLevel(InjectorKind kind)
{
    return kind == InjectorKind::kMonitorStuck ||
           kind == InjectorKind::kMonitorOffset ||
           kind == InjectorKind::kBrownoutBurst ||
           kind == InjectorKind::kEmiBurst;
}

/** Instruction-stream faults corrupt *architectural* state the storage
 *  integrity guards cannot see; they form a distinct threat class whose
 *  containment is measured separately from the storage/sensing model
 *  (they are excluded from the campaign's geckoClean verdict). */
inline bool
isInstrFault(InjectorKind kind)
{
    return kind == InjectorKind::kInstrSkip ||
           kind == InjectorKind::kOpcodeCorrupt ||
           kind == InjectorKind::kOperandFlip;
}

/** One campaign case, fully replayable from these fields. */
struct CaseSpec {
    std::string workload;
    compiler::Scheme scheme = compiler::Scheme::kNvp;
    InjectorKind injector = InjectorKind::kBitFlip;
    std::uint64_t seed = 0;
    /// Minimisation overrides (< 0 = derive from the seed): the failure
    /// event the injection lands on, and the target word / truncation
    /// offset.
    std::int64_t injectAtOverride = -1;
    std::int32_t wordOverride = -1;
};

/** How a case ended relative to its golden oracle. */
enum class CaseOutcome {
    kOk,        ///< outputs, NVM image and I/O all match the golden run
    kDiverged,  ///< observable state differs from the golden run
    kFaulted,   ///< the machine faulted (bad PC/address after restore)
    kLivelock,  ///< no forward progress within the watchdog budget
    kTimeout,   ///< (sim-level) did not complete within sim-time budget
};

const char* outcomeName(CaseOutcome outcome);
bool outcomeFromName(const std::string& name, CaseOutcome* out);

/** Outcomes that count as data corruption (kTimeout is a DoS, not a
 *  consistency violation). */
inline bool
isCorruption(CaseOutcome outcome)
{
    return outcome == CaseOutcome::kDiverged ||
           outcome == CaseOutcome::kFaulted ||
           outcome == CaseOutcome::kLivelock;
}

/** Result of one executed case. */
struct CaseResult {
    CaseSpec spec;
    CaseOutcome outcome = CaseOutcome::kOk;
    /// Human-readable divergence description (empty when ok).
    std::string detail;
    /// Effective injection point / target word actually used.
    std::int64_t injectAt = -1;
    std::int32_t word = -1;
    /// The victim's counters at case end.  Machine-level cases fill
    /// only `exec` and `runtime`; the defense counters are the adaptive
    /// controller's evidence (EMI-burst cases, where it is attached).
    sim::Counters counters;
    /// The controller detected the attack online and the run still
    /// matched its golden oracle (detected-then-survived = pass).
    bool defended = false;
    /// True when injectAt/word were shrunk by the minimiser.
    bool minimized = false;
};

}  // namespace gecko::fault

#endif  // GECKO_FAULT_FAULT_HPP_
