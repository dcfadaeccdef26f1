#include "runtime/gecko_runtime.hpp"

#include "campaign/archive.hpp"
#include "defense/controller.hpp"
#include "trace/trace.hpp"

namespace gecko::runtime {

using compiler::CkptSpec;
using compiler::RecoverySpec;
using compiler::RegionInfo;
using compiler::Scheme;

GeckoRuntime::GeckoRuntime(const compiler::CompiledProgram& compiled,
                           sim::Machine& machine, sim::Nvm& nvm)
    : compiled_(&compiled), machine_(&machine), nvm_(&nvm),
      jitImageFresh_(true)  // an all-zero area is a valid cold start
{
    // The system is designed so any legitimate power-on period covers
    // at least the region budget the compiler sized regions against.
    if (compiled.minOnPeriodCycles > 0)
        minOnCycles_ =
            static_cast<std::uint64_t>(compiled.minOnPeriodCycles);
}

bool
GeckoRuntime::jitActive() const
{
    switch (compiled_->scheme) {
      case Scheme::kNvp:
        return true;
      case Scheme::kRatchet:
        return false;
      default:
        return nvm_->jitDisabledFlag == 0 &&
               (defense_ == nullptr || defense_->jitAllowed());
    }
}

bool
GeckoRuntime::guarded() const
{
    // The integrity defences are GECKO's contribution; NVP (blind
    // roll-forward) and Ratchet (prior-work rollback) stay as the paper
    // evaluates them.
    return compiled_->scheme == Scheme::kGecko ||
           compiled_->scheme == Scheme::kGeckoNoPrune;
}

void
GeckoRuntime::degradeToRollback()
{
    if (!guarded() || nvm_->jitDisabledFlag != 0)
        return;
    nvm_->jitDisabledFlag = 1;
    ++stats.integrityDegradations;
    GECKO_TRACE_EVENT(trace::EventKind::kJitDisabled, 0,
                      stats.integrityDegradations, 0);
}

void
GeckoRuntime::noteCkptRetriesExhausted()
{
    ++stats.retriesExhausted;
    degradeToRollback();
    if (defense_)
        defense_->noteRetriesExhausted(now_);
}

void
GeckoRuntime::onBackupSignal()
{
    sawBackupSinceBoot_ = true;
}

void
GeckoRuntime::onProgress()
{
    if (defense_)
        defense_->noteCommit(nvm_->commitCount);
    // Rollback resumes at the interrupted region's entry sequence, whose
    // own boundary re-commits almost immediately — that re-commit is not
    // progress.  The probe therefore waits for a *second* commit (a full
    // region completed after boot).
    if (!probeArmed_ || nvm_->commitCount < commitsAtProbeArm_ + 2)
        return;
    // The first full region after boot committed.  If the (ignored)
    // voltage monitor stayed silent through it, assume the attack has
    // ended and re-arm the JIT protocol (§VI-F).  A wrong guess is
    // harmless: the idempotent program recovers either way.
    probeArmed_ = false;
    if (!sawBackupSinceBoot_) {
        nvm_->jitDisabledFlag = 0;
        ++stats.jitReenables;
        GECKO_TRACE_EVENT(trace::EventKind::kJitReenabled, 0,
                          stats.jitReenables, 0);
    }
}

std::uint64_t
GeckoRuntime::jitRestore()
{
    // maybe_unused: read before the restore mutates the image, but
    // consumed only by trace events (compiled away under GECKO_TRACE=0).
    [[maybe_unused]] const std::uint64_t imageEpoch =
        nvm_->jit[sim::Nvm::kJitEpochIndex];
    if (guarded()) {
        if (!sim::JitCheckpoint::imageValid(*nvm_)) {
            // Torn, bit-flipped, ACK-corrupted or stale image: refuse to
            // roll forward and recover from the last committed region
            // instead.  Persistent rejects mean the NVM itself is under
            // attack, so degrade to the rollback-only mode (the §VI-F
            // probe machinery later re-enables JIT once things quiet
            // down).
            ++stats.crcRejects;
            ++stats.corruptedRestores;
            GECKO_TRACE_EVENT(trace::EventKind::kCrcReject, 0, imageEpoch,
                              stats.crcRejects);
            if (++consecutiveIntegrityFailures_ >= kMaxIntegrityFailures) {
                degradeToRollback();
                probeArmed_ = true;
                commitsAtProbeArm_ = nvm_->commitCount;
            }
            return rollback();
        }
        consecutiveIntegrityFailures_ = 0;
        sim::JitCheckpoint::consumeImage(*nvm_);
    }
    ++stats.jitRestores;
    if (!jitImageFresh_)
        ++stats.corruptedRestores;
    GECKO_TRACE_EVENT(
        trace::EventKind::kJitRestore,
        static_cast<std::uint16_t>(
            (guarded() ? trace::kFlagGuarded : 0) |
            (jitImageFresh_ ? 0 : trace::kFlagStale)),
        imageEpoch, stats.jitRestores);
    return sim::JitCheckpoint::restore(*machine_, *nvm_, jitRamWords_);
}

std::uint64_t
GeckoRuntime::rollback()
{
    machine_->powerCycle();

    const auto& regions = compiled_->regions;
    std::uint32_t id = nvm_->committedRegion;
    if (regions.empty()) {
        GECKO_TRACE_EVENT(trace::EventKind::kRollback, 0, id,
                          nvm_->commitCount);
        return 0;
    }
    if (id >= regions.size())
        id = 0;
    const RegionInfo& info = regions[id];
    const RegionInfo* parent =
        info.parentId >= 0
            ? &regions[static_cast<std::size_t>(info.parentId)]
            : nullptr;

    // Walking the region lookup table costs roughly its size (the paper
    // reports a ~130-instruction table).
    std::uint64_t cycles = 130;

    auto& regs = machine_->regs();
    compiler::RegMask covered = 0;

    // Slot restores: the region's own table first, then the parent's for
    // anything a conflict-fix region does not checkpoint itself.
    for (const RegionInfo* r : {&info, parent}) {
        if (!r)
            continue;
        for (const CkptSpec& ck : r->ckpts) {
            if (covered & compiler::regBit(ck.reg))
                continue;
            // Slot integrity is a property of the checkpoint *storage*,
            // not of the GECKO protocol: every scheme writes slots
            // through the guarded (value, CRC, shadow) store, so every
            // scheme restores through the guarded read.  Ratchet used
            // to read the primary word raw, which let single-word slot
            // faults through on exactly the cases the campaign surfaced.
            sim::SlotRead sr = nvm_->readSlotGuarded(ck.reg, ck.slot);
            if (sr.repaired) {
                // Scrub: re-arm the full pair so the surviving latent
                // corruption cannot meet a second disturbance later.
                nvm_->scrubSlot(ck.reg, ck.slot, sr.value);
                ++stats.slotRepairs;
                GECKO_TRACE_EVENT(trace::EventKind::kSlotRepair, 0, ck.reg,
                                  static_cast<std::uint64_t>(ck.slot));
            }
            if (sr.unrecoverable) {
                ++stats.slotUnrecoverable;
                GECKO_TRACE_EVENT(trace::EventKind::kSlotUnrecoverable, 0,
                                  ck.reg,
                                  static_cast<std::uint64_t>(ck.slot));
            }
            regs[ck.reg] = sr.value;
            covered |= compiler::regBit(ck.reg);
            cycles += 3;
        }
    }

    // Recovery blocks reconstruct the pruned registers, in dependency
    // order; each executes against a snapshot and publishes its target.
    for (const RegionInfo* r : {&info, parent}) {
        if (!r)
            continue;
        for (const RecoverySpec& spec : r->recovery) {
            if (covered & compiler::regBit(spec.reg))
                continue;
            std::array<std::uint32_t, 16> env = regs;
            for (const ir::Instr& ins : spec.code) {
                sim::Machine::execRecoveryInstr(ins, env, *nvm_);
                cycles += static_cast<std::uint64_t>(ir::cycleCost(ins));
                ++stats.recoveryInstrRuns;
            }
            regs[spec.reg] = env[spec.reg];
            covered |= compiler::regBit(spec.reg);
            ++stats.recoveryBlockRuns;
            GECKO_TRACE_EVENT(trace::EventKind::kRecoveryBlock, 0, spec.reg,
                              spec.code.size());
        }
    }

    machine_->setPc(static_cast<std::uint32_t>(info.entryIdx));
    ++stats.rollbacks;
    if (defense_)
        defense_->noteRollback(now_, id);
    GECKO_TRACE_EVENT(trace::EventKind::kRollback, 0, id,
                      nvm_->commitCount);
    return cycles;
}

std::uint64_t
GeckoRuntime::onBoot(std::uint64_t prevOnCycles)
{
    bool first_boot = (nvm_->bootCount == 0);
    ++nvm_->bootCount;

    bool ack_changed =
        nvm_->jit[sim::Nvm::kJitAckIndex] != nvm_->lastBootAck;
    nvm_->lastBootAck = nvm_->jit[sim::Nvm::kJitAckIndex];

    std::uint32_t commits_since = nvm_->commitCount - nvm_->commitsAtLastBoot;
    nvm_->commitsAtLastBoot = nvm_->commitCount;

    probeArmed_ = false;
    sawBackupSinceBoot_ = false;

    switch (compiled_->scheme) {
      case Scheme::kNvp:
        return jitRestore();
      case Scheme::kRatchet:
        return rollback();
      default:
        break;
    }

    // GECKO boot protocol.
    if (nvm_->jitDisabledFlag != 0 ||
        (defense_ && !defense_->jitAllowed())) {
        // Attack mode (NVM flag or escalated controller): rollback
        // recovery and probe for the all-clear.
        probeArmed_ = true;
        commitsAtProbeArm_ = nvm_->commitCount;
        return rollback();
    }

    bool attack = false;
    bool ack_detect = false;
    bool timer_detect = false;
    if (!first_boot) {
        if (ackDetectorOn_ && !ack_changed) {
            attack = true;
            ack_detect = true;
            ++stats.ackDetections;
        }
        // Timer-based detection: a power outage recurring before one
        // region's worth of execution could complete means the wake or
        // backup signal was forged ("a power outage occurs more than
        // once in the same program region", §VI-A).
        if (timerDetectorOn_ &&
            (commits_since == 0 || prevOnCycles < minOnCycles_)) {
            attack = true;
            timer_detect = true;
            ++stats.dosDetections;
        }
    }
    if (defense_)
        defense_->noteBootEvidence(now_, ack_detect, timer_detect);
    if (attack) {
        ++stats.attackDetections;
        GECKO_TRACE_EVENT(
            trace::EventKind::kAttackDetected,
            static_cast<std::uint16_t>(
                (ack_detect ? trace::kFlagAckDetect : 0) |
                (timer_detect ? trace::kFlagTimerDetect : 0)),
            stats.attackDetections, 0);
        nvm_->jitDisabledFlag = 1;
        probeArmed_ = true;
        commitsAtProbeArm_ = nvm_->commitCount;
        return rollback();
    }
    return jitRestore();
}

void
GeckoRuntime::archiveState(campaign::Archive& ar)
{
    ar.section("gecko_runtime");
    ar.counters(stats);
    ar.boolean(jitImageFresh_);
    ar.i32(consecutiveIntegrityFailures_);
    ar.boolean(probeArmed_);
    ar.boolean(sawBackupSinceBoot_);
    ar.u64(commitsAtProbeArm_);
    ar.f64(now_);
}

}  // namespace gecko::runtime
