#include "fault/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>

#include "campaign/scenario.hpp"
#include "compiler/compile_cache.hpp"
#include "device/device_db.hpp"
#include "exp/parallel.hpp"
#include "exp/rng.hpp"
#include "fault/corpus.hpp"
#include "fault/injectors.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/jit_checkpoint.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace gecko::fault {

using compiler::CompiledProgram;
using compiler::Scheme;
using runtime::GeckoRuntime;
using sim::IoHub;
using sim::JitCheckpoint;
using sim::Machine;
using sim::Nvm;
using sim::RunExit;

namespace {

/** NVM data words of every campaign victim (matches the test harnesses
 *  and the SimConfig default, so NVM oracles are comparable). */
constexpr std::size_t kMemWords = 16384;

/** Historical machine-level livelock budget (run-loop iterations). */
constexpr std::uint64_t kDefaultWatchdogBudget = 400000;

/** 0 selects the historical default. */
std::uint64_t
resolveWatchdogBudget(std::uint64_t requested)
{
    return requested > 0 ? requested : kDefaultWatchdogBudget;
}

/** The fault-free oracle of one (workload, scheme, harness level). */
struct Golden {
    compiler::CompileCache::Ptr prog;
    std::vector<std::uint32_t> out0;
    std::vector<std::uint32_t> out2;
    std::vector<std::uint32_t> memory;
    std::uint64_t cycles = 0;
};

/**
 * Golden-oracle cache.  Computed once per key under a lock; the values
 * are pure functions of (workload, scheme, level), so the cache is
 * thread-count-independent.
 */
const Golden&
goldenFor(const std::string& workload, Scheme scheme, bool simLevel)
{
    static std::mutex mutex;
    static std::map<std::string, std::unique_ptr<Golden>> cache;

    std::string key = workload + "|" + compiler::schemeName(scheme) +
                      (simLevel ? "|sim" : "|machine");
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it != cache.end())
        return *it->second;

    // The oracle run is shared lazy state: whichever case misses the
    // cache first would otherwise record the golden run's events into
    // *its* buffer, making traces depend on scheduling.  Suppress.
    trace::BufferScope untraced(nullptr);

    auto golden = std::make_unique<Golden>();
    // Sim-level victims are compiled with a tighter region budget so
    // rollback recovery makes progress within the short power-on
    // periods of the brownout-heavy energy environments used there.
    compiler::PipelineConfig pc;
    if (simLevel)
        pc.maxRegionCycles = 8000;
    golden->prog = compiler::CompileCache::global().getOrCompile(
        compiler::CompileCache::makeKey(workload, scheme,
                                        simLevel ? "fault-sim"
                                                 : "fault-machine"),
        [&] { return compiler::compile(workloads::build(workload), scheme, pc); });

    Nvm nvm(kMemWords);
    IoHub io;
    workloads::setupIo(workload, io);
    golden->cycles = sim::runToCompletion(*golden->prog, nvm, io);
    golden->out0 = io.output(0).values();
    golden->out2 = io.output(2).values();
    golden->memory = nvm.data();

    const Golden& ref = *golden;
    cache.emplace(key, std::move(golden));
    return ref;
}

/** Is `got` a consistent prefix of the golden output stream? */
bool
prefixConsistent(const std::vector<std::uint32_t>& got,
                 const std::vector<std::uint32_t>& gold)
{
    if (got.size() > gold.size())
        return false;
    return std::equal(got.begin(), got.end(), gold.begin());
}

/** Fill the divergence verdict for a run that reached completion. */
void
judgeCompletedRun(CaseResult& res, const Golden& gold, const IoHub& io,
                  const Nvm& nvm)
{
    std::uint64_t conflicts =
        io.output(0).conflicts() + io.output(2).conflicts();
    if (conflicts > 0) {
        res.outcome = CaseOutcome::kDiverged;
        res.detail = "output conflicts (non-exactly-once I/O)";
    } else if (io.output(0).values() != gold.out0) {
        res.outcome = CaseOutcome::kDiverged;
        res.detail = "out0 stream differs from golden";
    } else if (io.output(2).values() != gold.out2) {
        res.outcome = CaseOutcome::kDiverged;
        res.detail = "out2 stream differs from golden";
    } else if (nvm.data() != gold.memory) {
        res.outcome = CaseOutcome::kDiverged;
        res.detail = "final NVM image differs from golden";
    } else {
        res.outcome = CaseOutcome::kOk;
    }
}

/** Corruption evidence for a run that did NOT complete: conflicting or
 *  non-prefix outputs already prove divergence. */
bool
partialRunDiverged(const Golden& gold, const IoHub& io, std::string* why)
{
    if (io.output(0).conflicts() + io.output(2).conflicts() > 0) {
        *why = "output conflicts (non-exactly-once I/O)";
        return true;
    }
    if (!prefixConsistent(io.output(0).values(), gold.out0)) {
        *why = "out0 stream inconsistent with golden prefix";
        return true;
    }
    if (!prefixConsistent(io.output(2).values(), gold.out2)) {
        *why = "out2 stream inconsistent with golden prefix";
        return true;
    }
    return false;
}

bool
hasJit(Scheme scheme)
{
    return scheme != Scheme::kRatchet;
}

// ---------------------------------------------------------------------
// Machine-level harness: budget-run execution with power failures at a
// seeded cadence, the injection applied at one seeded failure event
// (the crash_consistency_test harness plus a fault).
// ---------------------------------------------------------------------
CaseResult
runMachineCase(const CaseSpec& spec, std::uint64_t watchdogBudget,
               sim::ExecBackend backend = sim::defaultExecBackend())
{
    const Golden& gold = goldenFor(spec.workload, spec.scheme, false);
    CaseResult res;
    res.spec = spec;

    exp::Rng rng(spec.seed);
    // Fixed draw order — overrides replace derived values but never
    // skip a draw, so a minimised case replays the same mutation.
    std::uint64_t divisor = 3 + rng.pick(37);
    std::uint64_t interval =
        std::max<std::uint64_t>(43, gold.cycles / divisor);
    std::uint64_t offset = rng.pick(97);
    std::int64_t injectAtDerived = static_cast<std::int64_t>(
        rng.pick(std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(divisor / 2))));
    std::int64_t injectAt = spec.injectAtOverride >= 0
                                ? spec.injectAtOverride
                                : injectAtDerived;
    // Stale-slot coordinates (drawn for every kind to keep the
    // sequence identical across kinds' shared prefix).
    int staleReg = static_cast<int>(rng.pick(16));
    int staleSlot = static_cast<int>(
        rng.pick(static_cast<std::uint32_t>(compiler::kMaxSlots)));
    bool targetSlots = false;
    if (spec.injector == InjectorKind::kBitFlip ||
        spec.injector == InjectorKind::kMultiBitFlip) {
        bool coin = (rng.next() & 1) != 0;
        if (spec.scheme == Scheme::kNvp)
            targetSlots = false;
        else if (spec.scheme == Scheme::kRatchet)
            targetSlots = true;
        else
            targetSlots = coin;
    }
    int nBits =
        spec.injector == InjectorKind::kMultiBitFlip
            ? 2 + static_cast<int>(rng.pick(2))
            : 1;
    // Instruction-fault parameters (drawn after the shared prefix and
    // gated on the kind, so every other kind's sequence is untouched).
    // The glitch fires mid-interval — `instrDelta` cycles before the
    // next failure event — because an EMFI pulse strong enough to
    // corrupt a fetch lands while the victim is executing, not at the
    // power-failure boundary itself.
    std::uint64_t instrDelta = 0;
    int instrBits = 1;
    std::uint32_t wildTarget = 0;
    if (isInstrFault(spec.injector)) {
        instrDelta = 1 + rng.pick(static_cast<std::uint32_t>(
                             std::min<std::uint64_t>(interval - 1, 512)));
        if (spec.injector == InjectorKind::kOperandFlip)
            instrBits = 1 + static_cast<int>(rng.pick(2));
        wildTarget = rng.pick(static_cast<std::uint32_t>(
            std::max<std::size_t>(1, gold.prog->prog.size())));
    }

    Nvm nvm(kMemWords);
    IoHub io;
    workloads::setupIo(spec.workload, io);
    Machine machine(*gold.prog, nvm, io);
    machine.setExecBackend(backend);
    machine.setStagedIo(spec.scheme != Scheme::kNvp);
    machine.setFaultTolerant(true);
    GeckoRuntime runtime(*gold.prog, machine, nvm);
    runtime.onBoot();

    std::array<std::uint32_t, Nvm::kJitWords> savedImage{};
    std::uint32_t staleValue = 0;
    bool captured = false;
    bool injected = false;

    std::uint64_t executed = 0;
    std::uint64_t next_failure = interval + offset;
    std::int64_t failureIdx = 0;
    std::int64_t maxFailures = injectAt + 24;
    std::uint64_t watchdog = 0;
    const std::uint64_t cycleCap = gold.cycles * 64 + (1ull << 22);
    // Instruction-fault arming: the fault fires at an absolute cycle
    // between two failure events, and the same EMI window that glitched
    // the fetch masks the *next* backup signal, so the checkpoint that
    // would capture the corrupted state is skipped for every scheme.
    bool instrArmed = false;
    bool skipNextCkpt = false;
    std::uint64_t instrFireAt = 0;

    while (!machine.halted()) {
        std::uint64_t target = next_failure;
        if (instrArmed && instrFireAt > executed && instrFireAt < target)
            target = instrFireAt;
        std::uint64_t budget = target > executed ? target - executed : 1;
        std::uint64_t consumed = 0;
        RunExit exit = machine.run(budget, &consumed);
        executed += consumed;
        if (consumed > 0)
            runtime.noteExecutionSinceCheckpoint();
        runtime.onProgress();
        if (exit == RunExit::kHalted)
            break;
        if (exit == RunExit::kFaulted) {
            if (injected && isInstrFault(spec.injector)) {
                // A glitched fetch trapped (bad PC/address): the MCU
                // reboots through its normal recovery path — the trap
                // is part of the fault's observable behaviour, not the
                // end of the experiment.  Bounded by the watchdog.
                machine.powerCycle();
                runtime.onBoot();
            } else {
                res.outcome = CaseOutcome::kFaulted;
                res.detail = "machine faulted (bad PC/address)";
                break;
            }
        }
        if (instrArmed && executed >= instrFireAt) {
            // Applied at a run() boundary, so every execution backend
            // sees the identical architectural mutation.
            switch (spec.injector) {
              case InjectorKind::kInstrSkip:
                injectInstrSkip(machine);
                break;
              case InjectorKind::kOpcodeCorrupt:
                injectOpcodeCorrupt(machine, wildTarget);
                break;
              case InjectorKind::kOperandFlip:
                res.word = injectOperandFlip(machine, instrBits, rng,
                                             spec.wordOverride);
                break;
              default:
                break;
            }
            instrArmed = false;
            injected = true;
            skipNextCkpt = true;
        }
        if (executed >= next_failure) {
            if (failureIdx < maxFailures) {
                bool isInject =
                    !injected && !instrArmed && failureIdx == injectAt;
                // The stale injectors (and slot-targeting flips) need a
                // *hard* failure at the injection point: no fresh
                // checkpoint, so the rollback/restore path actually
                // reads the disturbed storage.  An applied instruction
                // fault masks the next backup signal the same way
                // (skipNextCkpt): the corrupted volatile state dies
                // uncheckpointed, which is exactly what lets rollback
                // schemes contain it.
                bool skipCkpt =
                    skipNextCkpt ||
                    (isInject &&
                     (spec.injector == InjectorKind::kAckCorrupt ||
                      spec.injector == InjectorKind::kStaleImage ||
                      targetSlots));
                bool torn =
                    isInject && spec.injector == InjectorKind::kTornWrite;

                if (runtime.jitActive() && !skipCkpt) {
                    if (torn) {
                        int cutDerived = static_cast<int>(rng.pick(
                            static_cast<std::uint32_t>(Nvm::kJitWords)));
                        int cut = spec.wordOverride >= 0
                                      ? spec.wordOverride
                                      : cutDerived;
                        GECKO_TRACE_EVENT(trace::EventKind::kFaultInject, 0,
                                          trace::kSiteTornWrite,
                                          static_cast<std::uint64_t>(cut));
                        sim::JitResult jr =
                            JitCheckpoint::checkpoint(machine, nvm, cut);
                        if (!jr.complete) {
                            GECKO_TRACE_EVENT(
                                trace::EventKind::kJitSaveTorn, 0, 0,
                                static_cast<std::uint64_t>(cut));
                        }
                        res.word = cut;
                        // Torn: the ACK never toggled; the image stays
                        // stale/partial — do not mark it fresh.
                    } else {
                        JitCheckpoint::checkpoint(machine, nvm);
                        runtime.noteJitCheckpointComplete();
                        if (!captured) {
                            savedImage = nvm.jit;
                            staleValue =
                                nvm.slots[static_cast<std::size_t>(
                                    staleReg)][static_cast<std::size_t>(
                                    staleSlot)];
                            captured = true;
                        }
                    }
                }
                if (isInject && isInstrFault(spec.injector)) {
                    instrArmed = true;
                    instrFireAt = next_failure + interval - instrDelta;
                    res.injectAt = failureIdx;
                } else if (isInject) {
                    switch (spec.injector) {
                      case InjectorKind::kBitFlip:
                      case InjectorKind::kMultiBitFlip:
                        res.word = targetSlots
                                       ? corruptSlotWord(nvm, nBits, rng,
                                                         spec.wordOverride)
                                       : corruptJitWord(nvm, nBits, rng,
                                                        spec.wordOverride);
                        break;
                      case InjectorKind::kTornWrite:
                        if (!hasJit(spec.scheme)) {
                            // No JIT image to tear on Ratchet; the hard
                            // failure itself is the fault.
                            res.word = -1;
                        }
                        break;
                      case InjectorKind::kAckCorrupt:
                        corruptAckWord(nvm, rng);
                        break;
                      case InjectorKind::kStaleImage:
                        if (hasJit(spec.scheme))
                            substituteJitImage(nvm, savedImage);
                        if (spec.scheme != Scheme::kNvp)
                            substituteStaleSlot(nvm, staleReg, staleSlot,
                                                staleValue);
                        break;
                      default:
                        break;
                    }
                    injected = true;
                    res.injectAt = failureIdx;
                }
                machine.powerCycle();
                runtime.onBoot();
                skipNextCkpt = false;
                ++failureIdx;
            }
            next_failure += interval;
        }
        if (++watchdog > watchdogBudget || executed > cycleCap) {
            res.outcome = CaseOutcome::kLivelock;
            std::ostringstream why;
            why << "no forward progress within watchdog budget ("
                << (watchdog > watchdogBudget ? "watchdog=" : "cycleCap=")
                << (watchdog > watchdogBudget ? watchdogBudget : cycleCap)
                << " pc=" << machine.pc()
                << " region=" << nvm.committedRegion
                << " commits=" << nvm.commitCount << ")";
            res.detail = why.str();
            break;
        }
    }

    res.counters.exec = machine.stats;
    res.counters.runtime = runtime.stats;
    if (!injected && res.outcome == CaseOutcome::kOk)
        res.detail = "not-injected";
    if (res.outcome == CaseOutcome::kOk) {
        judgeCompletedRun(res, gold, io, nvm);
    } else {
        // Even a faulted/livelocked run may already have proven
        // divergence through its observable outputs.
        std::string why;
        if (partialRunDiverged(gold, io, &why)) {
            res.outcome = CaseOutcome::kDiverged;
            res.detail = why;
        }
    }
    return res;
}

// ---------------------------------------------------------------------
// Sim-level harness: the full intermittent simulation under a hostile
// energy/sensing environment (monitor faults, brownout bursts).
// ---------------------------------------------------------------------
CaseResult
runSimCase(const CaseSpec& spec, double simTimeBudgetS,
           sim::ExecBackend backend = sim::defaultExecBackend())
{
    const Golden& gold = goldenFor(spec.workload, spec.scheme, true);
    CaseResult res;
    res.spec = spec;
    res.injectAt = 0;  // continuous environmental fault

    const auto& dev = device::DeviceDb::msp430fr5994();
    exp::Rng rng(spec.seed);
    // Fixed draw order (see runMachineCase).
    double onS = 0.002 + 0.003 * rng.uniform();
    double offS = 0.003 + 0.005 * rng.uniform();
    double capF = 15e-6 + 15e-6 * rng.uniform();
    // Stuck-at faults are intermittent (a flaky sensing path): the
    // monitor reads a frozen high value during recurring windows,
    // masking the V_backup crossing until the rail is nearly dead — the
    // checkpoint then starts with almost no margin and tears.
    double stuckV = dev.vOn + 0.05 + 0.3 * rng.uniform();
    double stuckPeriodS = 0.004 + 0.006 * rng.uniform();
    double stuckWidthS = 0.002 + 0.003 * rng.uniform();
    // Offsets from just inside the paper's malicious window (backup
    // fires barely above V_off: torn checkpoints) up to past it (backup
    // masked entirely: hard deaths).
    double offsetV = 0.05 + 0.5 * rng.uniform();
    double burstPeriodS = 0.004 + 0.006 * rng.uniform();
    double burstS = 0.002 + 0.002 * rng.uniform();
    double faultProb = 0.05 + 0.20 * rng.uniform();
    std::uint64_t hookSeed = rng.next();
    // EMI-burst parameters (drawn after the shared prefix, so every
    // other kind's sequence is untouched).
    double atkStart = 0.0, atkOnS = 0.0, atkGapS = 0.0, atkPower = 0.0;
    if (spec.injector == InjectorKind::kEmiBurst) {
        atkStart = 0.003 + 0.003 * rng.uniform();
        atkOnS = 0.010 + 0.010 * rng.uniform();
        atkGapS = 0.004 + 0.004 * rng.uniform();
        atkPower = 30.0 + 8.0 * rng.uniform();
    }

    sim::SimConfig cfg;
    cfg.continuous = false;
    cfg.memWords = kMemWords;
    // Small CTPL padding: most tears land in the context words, the
    // interesting half of the image.
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.monitorSeed = spec.seed;
    cfg.cap.capacitanceF = capF;
    cfg.cap.initialV = 3.3;

    IoHub io;
    workloads::setupIo(spec.workload, io);

    energy::SquareWaveHarvester wave(3.3, 5.0, onS, offS);
    energy::ConstantHarvester supply(3.3, 5.0);
    std::unique_ptr<BrownoutHarvester> brownout;
    std::optional<campaign::ScenarioEnv> emi;
    energy::Harvester* source = &wave;
    if (spec.injector == InjectorKind::kBrownoutBurst) {
        brownout = std::make_unique<BrownoutHarvester>(
            supply, burstPeriodS, burstS, spec.seed, simTimeBudgetS + 1.0);
        source = brownout.get();
    }
    if (spec.injector == InjectorKind::kEmiBurst) {
        // The attack — not the energy environment — is the fault: three
        // 27 MHz windows on the scenario's steady supply, with the
        // adaptive controller armed (a no-op for the unguarded
        // NVP/Ratchet victims).
        campaign::Scenario burst;
        burst.kind = campaign::ScenarioKind::kBurst;
        burst.freqHz = 27e6;
        burst.powerDbm = atkPower;
        burst.burstCount = 3;
        burst.burstOnS = atkOnS;
        burst.burstGapS = atkGapS;
        burst.phaseS = atkStart;
        emi.emplace(burst, dev, cfg.monitorKind, spec.seed, simTimeBudgetS);
        source = &emi->supply();
        cfg.defense.enabled = true;
    }

    sim::IntermittentSim simulation(*gold.prog, dev, cfg, *source, io);
    simulation.machine().setExecBackend(backend);
    if (emi)
        emi->attach(simulation);

    switch (spec.injector) {
      case InjectorKind::kMonitorStuck:
        simulation.setMonitorFault(
            [stuckV, stuckPeriodS, stuckWidthS](double v, double t) {
                double phase = std::fmod(t, stuckPeriodS);
                return phase < stuckWidthS ? stuckV : v;
            });
        break;
      case InjectorKind::kMonitorOffset:
        simulation.setMonitorFault(
            [offsetV](double v, double) { return v + offsetV; });
        break;
      case InjectorKind::kBrownoutBurst:
        // Mid-burst disturbance also makes individual checkpoint word
        // writes fail transiently — the bounded-retry path's workload.
        simulation.setJitWriteFault(
            [faultRng = exp::Rng(hookSeed), faultProb](int) mutable {
                return faultRng.uniform() < faultProb;
            });
        break;
      default:
        break;
    }

    bool completed = simulation.runUntilCompletions(1, simTimeBudgetS);
    res.counters = simulation.counters();

    if (completed) {
        judgeCompletedRun(res, gold, io, simulation.nvm());
    } else {
        std::string why;
        if (partialRunDiverged(gold, io, &why)) {
            res.outcome = CaseOutcome::kDiverged;
            res.detail = why;
        } else {
            res.outcome = CaseOutcome::kTimeout;
            res.detail = "no completion within sim-time budget";
        }
    }
    // Detected-then-survived attack: the controller escalated during the
    // run and the outputs still match the golden oracle — a pass.
    if (res.outcome == CaseOutcome::kOk &&
        res.counters.defense.escalations > 0) {
        res.defended = true;
        res.detail = "defended";
    }
    return res;
}

/** Bisect toward the smallest failing value of one override knob. */
template <class Probe>
std::int64_t
bisectDown(std::int64_t hi, Probe failsAt)
{
    std::int64_t lo = 0;
    while (lo < hi) {
        std::int64_t mid = lo + (hi - lo) / 2;
        if (failsAt(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return hi;
}

/**
 * Shrink a failing machine-level case: bisect the injection event index
 * toward 0, then (torn writes) the truncation offset.  The returned
 * result ran with the minimised overrides and still fails — usually as
 * bisection's last failing probe, which a case being a pure function of
 * its spec lets stand for a re-run; if shrinking ever stops
 * reproducing, the original result is kept.
 */
CaseResult
minimizeCase(const CaseResult& failing, std::uint64_t watchdogBudget)
{
    if (isSimLevel(failing.spec.injector) || failing.injectAt < 0)
        return failing;

    std::optional<CaseResult> lastFailing;
    const auto fails = [&](const CaseSpec& probe) {
        CaseResult r = runMachineCase(probe, watchdogBudget);
        if (!isCorruption(r.outcome))
            return false;
        lastFailing = std::move(r);
        return true;
    };
    CaseSpec spec = failing.spec;
    spec.wordOverride = failing.word;
    spec.injectAtOverride = bisectDown(failing.injectAt, [&](std::int64_t a) {
        CaseSpec probe = spec;
        probe.injectAtOverride = a;
        return fails(probe);
    });
    if (failing.spec.injector == InjectorKind::kTornWrite &&
        failing.word > 0) {
        spec.wordOverride =
            static_cast<std::int32_t>(bisectDown(failing.word, [&](std::int64_t w) {
                CaseSpec probe = spec;
                probe.wordOverride = static_cast<std::int32_t>(w);
                return fails(probe);
            }));
    }
    // Every probe copies `spec`, so the overrides identify the run.
    const bool probed =
        lastFailing &&
        lastFailing->spec.injectAtOverride == spec.injectAtOverride &&
        lastFailing->spec.wordOverride == spec.wordOverride;
    CaseResult minimized =
        probed ? std::move(*lastFailing) : runMachineCase(spec, watchdogBudget);
    if (!isCorruption(minimized.outcome))
        return failing;
    minimized.minimized = true;
    return minimized;
}

/** Injector schedule: the five discrete NVM injectors three times, one
 *  sim-level injector after each block (sim cases are ~1/7 of the
 *  grid — they cost an order of magnitude more wall time each), then
 *  the three instruction-stream injectors (machine-level, cheap). */
constexpr InjectorKind kSchedule[] = {
    InjectorKind::kBitFlip,      InjectorKind::kTornWrite,
    InjectorKind::kAckCorrupt,   InjectorKind::kStaleImage,
    InjectorKind::kMultiBitFlip, InjectorKind::kMonitorStuck,
    InjectorKind::kBitFlip,      InjectorKind::kTornWrite,
    InjectorKind::kAckCorrupt,   InjectorKind::kStaleImage,
    InjectorKind::kMultiBitFlip, InjectorKind::kMonitorOffset,
    InjectorKind::kBitFlip,      InjectorKind::kTornWrite,
    InjectorKind::kAckCorrupt,   InjectorKind::kStaleImage,
    InjectorKind::kMultiBitFlip, InjectorKind::kBrownoutBurst,
    InjectorKind::kBitFlip,      InjectorKind::kTornWrite,
    InjectorKind::kAckCorrupt,   InjectorKind::kStaleImage,
    InjectorKind::kMultiBitFlip, InjectorKind::kEmiBurst,
    InjectorKind::kInstrSkip,    InjectorKind::kOpcodeCorrupt,
    InjectorKind::kOperandFlip,
};
constexpr std::size_t kScheduleLen =
    sizeof(kSchedule) / sizeof(kSchedule[0]);

}  // namespace

std::vector<CaseSpec>
makeCampaignCases(const CampaignConfig& config)
{
    std::vector<CaseSpec> specs;
    specs.reserve(static_cast<std::size_t>(config.cases));
    const std::size_t ns = config.schemes.size();
    const std::size_t nw = config.workloads.size();
    // A spec-file injector mix replaces the built-in schedule; the
    // default (empty mix) is byte-identical to the historical campaign.
    const InjectorKind* schedule = kSchedule;
    std::size_t scheduleLen = kScheduleLen;
    if (!config.injectorMix.empty()) {
        schedule = config.injectorMix.data();
        scheduleLen = config.injectorMix.size();
    }
    for (int i = 0; i < config.cases; ++i) {
        auto u = static_cast<std::size_t>(i);
        CaseSpec spec;
        spec.scheme = config.schemes[u % ns];
        spec.injector = schedule[(u / ns) % scheduleLen];
        spec.workload = isSimLevel(spec.injector)
                            ? "sensor_loop"
                            : config.workloads[(u / (ns * scheduleLen)) % nw];
        spec.seed = exp::mixSeed(config.seed, static_cast<std::uint64_t>(i));
        specs.push_back(std::move(spec));
    }
    return specs;
}

CaseResult
runCase(const CaseSpec& spec, double simTimeBudgetS,
        std::uint64_t watchdogBudget, sim::ExecBackend backend)
{
    if (isSimLevel(spec.injector))
        return runSimCase(spec, simTimeBudgetS, backend);
    return runMachineCase(spec, resolveWatchdogBudget(watchdogBudget),
                          backend);
}

CampaignResult
runCampaign(const CampaignConfig& config)
{
    std::vector<CaseSpec> specs = makeCampaignCases(config);
    exp::ThreadPool& pool =
        config.pool ? *config.pool : exp::ThreadPool::global();
    const std::uint64_t watchdogBudget =
        resolveWatchdogBudget(config.watchdogBudget);

    CampaignResult out;
    out.cases = exp::parallelMap(pool, specs, [&](const CaseSpec& spec) {
        // parallelMap hands out references into `specs`, so the case
        // ordinal (the deterministic trace-merge index) is recoverable.
        const auto ordinal =
            static_cast<std::uint64_t>(&spec - specs.data());
        trace::CaseScope scope(
            config.collector,
            spec.workload + "|" + compiler::schemeName(spec.scheme) + "|" +
                injectorName(spec.injector) + "|" +
                std::to_string(spec.seed),
            ordinal);
        return runCase(spec, config.simTimeBudgetS, watchdogBudget);
    });

    // Aggregate per (scheme, injector).
    const std::size_t ns = config.schemes.size();
    out.counts.assign(ns, std::vector<GroupCounts>(kInjectorKinds));
    auto schemeIdx = [&](Scheme s) {
        for (std::size_t i = 0; i < ns; ++i)
            if (config.schemes[i] == s)
                return i;
        return std::size_t{0};
    };
    for (const CaseResult& r : out.cases) {
        GroupCounts& g =
            out.counts[schemeIdx(r.spec.scheme)]
                      [static_cast<std::size_t>(r.spec.injector)];
        ++g.cases;
        switch (r.outcome) {
          case CaseOutcome::kOk:
            ++g.ok;
            break;
          case CaseOutcome::kDiverged:
            ++g.diverged;
            break;
          case CaseOutcome::kFaulted:
            ++g.faulted;
            break;
          case CaseOutcome::kLivelock:
            ++g.livelock;
            break;
          case CaseOutcome::kTimeout:
            ++g.timeout;
            break;
        }
        if (r.detail == "not-injected")
            ++g.notInjected;
        if (r.defended) {
            ++g.defended;
            ++out.defendedCases;
        }
        out.totals += r.counters;
        bool corrupt = isCorruption(r.outcome);
        bool gecko = r.spec.scheme == Scheme::kGecko ||
                     r.spec.scheme == Scheme::kGeckoNoPrune;
        if (isInstrFault(r.spec.injector)) {
            // Instruction faults corrupt architectural state the
            // storage-integrity guards cannot see — a distinct threat
            // class, measured by containment *rate* rather than the
            // geckoClean verdict (which keeps the paper's fault model).
            if (gecko) {
                ++out.instrGeckoCases;
                if (corrupt)
                    ++out.instrGeckoCorruptions;
            }
            if (r.spec.scheme == Scheme::kNvp) {
                ++out.instrNvpCases;
                if (corrupt)
                    ++out.instrNvpCorruptions;
            }
        } else {
            if (corrupt && gecko) {
                out.geckoClean = false;
                ++out.geckoCorruptions;
            }
            if (corrupt && r.spec.scheme == Scheme::kNvp)
                ++out.nvpCorruptions;
        }
    }

    // Corpus selection: the first corpusPerGroup failing cases per
    // (workload, scheme, injector) in input order — deterministic under
    // any thread count — each auto-minimised.
    std::map<std::string, int> kept;
    std::uint64_t dropped = 0;
    // Minimisation probes re-run cases many times; keep them out of any
    // ambient trace buffer (only each case's primary run is recorded).
    trace::BufferScope untraced(nullptr);
    for (const CaseResult& r : out.cases) {
        if (!isCorruption(r.outcome))
            continue;
        std::string group = r.spec.workload + "|" +
                            compiler::schemeName(r.spec.scheme) + "|" +
                            injectorName(r.spec.injector);
        if (kept[group] >= config.corpusPerGroup) {
            ++dropped;
            continue;
        }
        ++kept[group];
        out.corpusCases.push_back(minimizeCase(r, watchdogBudget));
    }
    out.corpus = formatCorpus(config.seed, out.corpusCases);

    // Deterministic report.
    std::ostringstream rep;
    rep << "# gecko-fault-campaign v1\n";
    rep << "# seed=" << config.seed << " cases=" << config.cases
        << " corpusPerGroup=" << config.corpusPerGroup << "\n";
    for (std::size_t s = 0; s < ns; ++s) {
        for (int k = 0; k < kInjectorKinds; ++k) {
            const GroupCounts& g = out.counts[s][static_cast<std::size_t>(k)];
            if (g.cases == 0)
                continue;
            rep << "scheme=" << compiler::schemeName(config.schemes[s])
                << " injector="
                << injectorName(static_cast<InjectorKind>(k))
                << " cases=" << g.cases << " ok=" << g.ok
                << " diverged=" << g.diverged << " faulted=" << g.faulted
                << " livelock=" << g.livelock << " timeout=" << g.timeout
                << " notInjected=" << g.notInjected
                << " corrupted=" << g.corrupted() << "\n";
        }
    }
    rep << "corpus kept=" << out.corpusCases.size() << " dropped=" << dropped
        << "\n";
    const runtime::RuntimeStats& rt = out.totals.runtime;
    rep << "counters corruptedRestores=" << rt.corruptedRestores
        << " crcRejects=" << rt.crcRejects
        << " slotRepairs=" << rt.slotRepairs
        << " ckptSaveRetries=" << rt.ckptSaveRetries
        << " retriesExhausted=" << rt.retriesExhausted
        << " integrityDegradations=" << rt.integrityDegradations << "\n";
    rep << "defense defended=" << out.defendedCases
        << " escalations=" << out.totals.defense.escalations
        << " ratchetTrips=" << out.totals.defense.ratchetTrips << "\n";
    rep << "summary geckoCorruptions=" << out.geckoCorruptions
        << " nvpCorruptions=" << out.nvpCorruptions << " geckoClean="
        << (out.geckoClean ? "yes" : "no") << "\n";
    if (out.instrGeckoCases + out.instrNvpCases > 0)
        rep << "instr gecko=" << out.instrGeckoCorruptions << "/"
            << out.instrGeckoCases << " nvp=" << out.instrNvpCorruptions
            << "/" << out.instrNvpCases << " contained="
            << (out.instrContained() ? "yes" : "no") << "\n";
    out.report = rep.str();
    return out;
}

}  // namespace gecko::fault
