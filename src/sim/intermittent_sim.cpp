#include "sim/intermittent_sim.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "campaign/archive.hpp"
#include "exp/rng.hpp"
#include "trace/trace.hpp"

namespace gecko::sim {

using compiler::Scheme;

namespace {

constexpr std::uint64_t kNoCompletionTarget = ~std::uint64_t{0};
/// Cadence at which a bounded run polls its completion target — the
/// stop granularity of the historical sliced driver, kept so bounded
/// runs settle identically.
constexpr double kCompletionPollS = 0.01;
/// Largest burst limit; larger requests clamp to it.
constexpr int kMaxCoalesceLimit = 1 << 16;
/// Brown-out lockout hysteresis (V): the PMU releases reset only once
/// V_CC exceeds V_off by this margin.
constexpr double kBootLockoutV = 0.02;
/// Monitor sample-timing jitter (s).  ADC conversions are triggered
/// from the DCO (an RC oscillator with %-level cycle jitter), so
/// successive samples land at effectively random phases of an RF
/// carrier.
constexpr double kSampleJitterS = 100e-9;

/**
 * The DCO jitter of point read `seq` (s).  A full avalanche hash keeps
 * successive jitters independent while runs stay reproducible.
 */
double
sampleJitter(std::uint32_t seq)
{
    std::uint32_t h = seq;
    h ^= h >> 16;
    h *= 0x45d9f3bu;
    h ^= h >> 16;
    h *= 0x45d9f3bu;
    h ^= h >> 16;
    return (h >> 8) * (kSampleJitterS / double(1u << 24));
}

/**
 * The shadow-view rule: what the redundant monitor observes of a sample
 * whose analog reality is [lo, hi] — the window envelope for a
 * continuous shadow, else a point read of the midpoint.
 */
template <class Monitor>
analog::MonitorEvent
shadowView(Monitor& shadow, double lo, double hi)
{
    if constexpr (Monitor::continuous())
        if (hi > lo)
            return analog::observeEnvelope(shadow, lo, hi);
    return shadow.observe(0.5 * (lo + hi));
}

/** Voltage in integer millivolt for trace payloads (clamped at 0). */
[[maybe_unused]] std::uint64_t
traceMv(double v)
{
    return v > 0 ? static_cast<std::uint64_t>(std::llround(v * 1000.0)) : 0;
}

/**
 * Resolve the burst limit: explicit config wins, then GECKO_COALESCE
 * (0 or 1 = off), default 64 quanta — one coarse quiet-stride burst.
 */
int
resolveCoalesceLimit(int configured)
{
    const int limit = configured < 0
                          ? parseCoalesceLimit(std::getenv("GECKO_COALESCE"))
                          : configured;
    return std::clamp(limit, 0, kMaxCoalesceLimit);
}

}  // namespace

int
parseCoalesceLimit(const char* value)
{
    if (value == nullptr || *value == '\0')
        return 64;
    long long limit = 0;
    for (const char* c = value; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            throw std::invalid_argument(
                std::string("GECKO_COALESCE=") + value +
                ": expected a non-negative integer burst limit (0 or 1 = "
                "off, default 64)");
        limit = std::min<long long>(limit * 10 + (*c - '0'),
                                    kMaxCoalesceLimit);
    }
    return static_cast<int>(limit);
}

IntermittentSim::IntermittentSim(const compiler::CompiledProgram& compiled,
                                 const device::DeviceProfile& device,
                                 const SimConfig& config,
                                 energy::Harvester& harvester, IoHub& io)
    : device_(device), config_(config), harvester_(harvester),
      nvm_(config.memWords), machine_(compiled, nvm_, io),
      runtime_(compiled, machine_, nvm_), cap_(config.cap),
      // V_backup may be overridden (capacitor-size sweep).
      vBackup_(config.vBackupOverride > 0 ? config.vBackupOverride
                                          : device.vBackup),
      adc_(device.adcBits, device.vccNominal, vBackup_, device.vOn,
           device.adcSampleHz),
      comparator_(vBackup_, device.vOn, device.compHysteresisV,
                  device.compCheckHz)
{
    energyAtVoff_ = 0.5 * cap_.capacitance() * device.vOff * device.vOff;
    energyAtVbackup_ = 0.5 * cap_.capacitance() * vBackup_ * vBackup_;
    energyLockout_ = cap_.ceilingEnergy(device.vOff + kBootLockoutV);
    epc_ = device.power.energyPerCycleJ;
    spc_ = device.power.secondsPerCycle();

    adc_.reset(cap_.voltage());
    comparator_.reset(cap_.voltage());
    quietMarginE_ = 4.0 * (sampleIntervalS() * config.quietStride *
                           device.power.clockHz * epc_);

    coalesceLimit_ = resolveCoalesceLimit(config.coalesceQuanta);

    bool staged = compiled.scheme != Scheme::kNvp;
    machine_.setStagedIo(staged);
    machine_.setContinuous(config.continuous);
    machine_.setFaultTolerant(true);
    runtime_.setJitRamWords(config.jitRamWords);

    // DCO sample jitter is centrally seeded: with no GECKO_SEED and the
    // default monitorSeed this stays 0, preserving the historical
    // sample sequence bit-for-bit.
    sampleSeq_ =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(config.monitorSeed));

    // Adaptive defense (DESIGN.md §11): guarded schemes only — NVP and
    // Ratchet stay exactly as the paper evaluates them.
    if (config.defense.enabled &&
        (compiled.scheme == Scheme::kGecko ||
         compiled.scheme == Scheme::kGeckoNoPrune)) {
        defense::PlantModel plant;
        plant.clockHz = device.power.clockHz;
        plant.energyPerCycleJ = device.power.energyPerCycleJ;
        plant.sleepPowerW = device.power.sleepPowerW;
        plant.capacitanceF = cap_.capacitance();
        plant.sourceResistance =
            std::max(harvester.seriesResistance(0.0), 1e-3);
        plant.maxV = device.vccNominal;
        plant.vOn = device.vOn;
        plant.vOff = device.vOff;
        plant.bootEnergyJ =
            static_cast<double>(config.bootOverheadCycles) *
            device.power.energyPerCycleJ;
        defense_ =
            std::make_unique<defense::DefenseController>(config.defense,
                                                         plant);
        runtime_.setDefense(defense_.get());
    }

#if GECKO_TRACE
    // Arm trace emission of threshold crossings and outage edges; inert
    // unless a trace buffer is installed for the running case.
    cap_.watchThresholds(device.vOff, vBackup_, device.vOn);
#endif
}

bool
IntermittentSim::attackActive() const
{
    return emi_ != nullptr && emi_->enabled() && emi_->amplitude() > 1e-4;
}

void
IntermittentSim::updateAttack()
{
    toneUntil_ = std::numeric_limits<double>::infinity();
    if (!schedule_ || !emi_)
        return;
    const attack::AttackSchedule::Tone tone = schedule_->toneAt(now_);
    toneUntil_ = tone.until;
    if (const attack::AttackWindow* window = tone.window) {
        if (!emi_->enabled() || emi_->freqHz() != window->freqHz ||
            emi_->powerDbm() != window->powerDbm)
            emi_->setTone(window->freqHz, window->powerDbm);
        emi_->setEnabled(true);
    } else {
        emi_->setEnabled(false);
    }
}

IntermittentSim::Reading
IntermittentSim::reading(double v, double t, bool envelope,
                         std::uint32_t& seq) const
{
    Reading r;
    if (envelope) {
        r.lo = v - emi_->amplitude();
        r.hi = v + emi_->amplitude();
    } else {
        // DCO-clocked sampling: the conversion trigger jitters by tens
        // of nanoseconds, decorrelating the carrier phase between
        // samples.
        r.hi = r.lo =
            v + (emi_ ? emi_->voltageAt(t + sampleJitter(++seq)) : 0.0);
    }
    if (monitorFault_) {
        const double lo = monitorFault_(r.lo, t);
        const double hi = envelope ? monitorFault_(r.hi, t) : lo;
        r.faulted = lo != r.lo || hi != r.hi;
        r.lo = lo;
        r.hi = hi;
    }
    return r;
}

template <class Primary, class Shadow, class Admit>
std::optional<analog::MonitorEvent>
IntermittentSim::sampleMonitor(Primary& primary, Shadow* shadow,
                               defense::DefenseController* controller,
                               double v, double t, std::uint32_t& seq,
                               Admit&& admit)
{
    // Continuous (comparator) monitors react to every excursion inside
    // the window: feed them the window's envelope under attack.
    const bool attacked = attackActive();
    const bool envelope = Primary::continuous() && attacked;
    Reading r = reading(v, t, envelope, seq);
    if (r.faulted && !monitorFaultTraced_) {
        monitorFaultTraced_ = true;
        GECKO_TRACE_EVENT(trace::EventKind::kFaultInject, 0,
                          trace::kSiteMonitorFault, traceMv(r.hi));
    }
    if (r.lo > r.hi)
        std::swap(r.lo, r.hi);
    const analog::MonitorEvent ev =
        envelope ? analog::observeEnvelope(primary, r.lo, r.hi)
                 : primary.observe(r.hi);
    if (ev.backup || ev.wake)
        GECKO_TRACE_EVENT(
            trace::EventKind::kMonitorTrip,
            static_cast<std::uint16_t>(
                (ev.backup ? trace::kFlagBackup : 0) |
                (ev.wake ? trace::kFlagWake : 0) |
                (attacked ? trace::kFlagAttack : 0) |
                (monitorFault_ ? trace::kFlagMonitorFault : 0)),
            traceMv(v), traceMv(r.hi));
    if (!admit(ev))
        return std::nullopt;
    if (controller) {
        // The analog reality the redundant sensing path is exposed to:
        // the full tone envelope under attack, the point reading
        // otherwise.
        const double lo = attacked ? v - emi_->amplitude() : r.hi;
        const double hi = attacked ? v + emi_->amplitude() : r.hi;
        controller->observeSample(t, lo, hi, ev, shadowView(*shadow, lo, hi));
    }
    return ev;
}

analog::MonitorEvent
IntermittentSim::observeMonitor()
{
    GECKO_TRACE_TIME(now_);
    return withMonitors(*this, [this](auto& primary, auto* shadow) {
        return *sampleMonitor(primary, shadow, defense_.get(), cap_.voltage(),
                              now_, sampleSeq_,
                              [](const analog::MonitorEvent&) { return true; });
    });
}

void
IntermittentSim::doJitCheckpoint()
{
    // One full attempt costs this much energy at most; a retry is only
    // worthwhile while the buffer can still afford a complete image.
    const double attemptEnergy =
        static_cast<double>(config_.jitRamWords + Nvm::kJitWords) *
        kJitStoreCycles * epc_;
    // Per-word draw and duration, in the slow path's operand order.
    const double wordEnergy = kJitStoreCycles * epc_;
    const double wordSeconds = kJitStoreCycles * spc_;
    // A write-fault hook sees every word index, and a trace buffer every
    // word's timestamp and threshold crossing: grant one word at a time
    // while either is installed.
    const bool perWord = jitWriteFault_ || trace::current() != nullptr;

    for (int attempt = 0;; ++attempt) {
        ++stats.jitCheckpointAttempts;
        JitWriter writer(machine_, nvm_, config_.jitRamWords);
        // Words paid for so far (a vetoed word is paid, never written).
        int words = 0;
        bool aborted = false;
        bool faulted = false;
        bool vetoDone = false;
        while (words < writer.words()) {
            if (jitWriteFault_ && jitWriteFault_(words)) {
                // Transient write failure (injected mid-burst
                // disturbance): the routine detects it and bails out so
                // the boot path never trusts the partial image.
                faulted = true;
                GECKO_TRACE_EVENT(trace::EventKind::kFaultInject, 0,
                                  trace::kSiteJitWriteFault,
                                  static_cast<std::uint64_t>(words));
                break;
            }
            // Segment grant: the words up to the next one that ends in
            // an event — the 64-word recharge or the veto read.
            int grant = perWord ? 1
                                : std::min(writer.words() - words,
                                           64 - (words & 63));
            if (!vetoDone)
                grant = std::min(
                    grant, std::max(1, kJitAbortWindowWords - words));
            // March the grant on locals, word by word as the routine
            // spends it: the tear test, the draw, the clock.
            double e = cap_.energy();
            double t = now_;
            int paid = 0;
            for (; paid < grant && e - wordEnergy > energyAtVoff_; ++paid) {
                e -= wordEnergy;
                t += wordSeconds;
            }
            cap_.commitEnergy(e);
            now_ = t;
            GECKO_TRACE_TIME(now_);
            words += paid;
            if (paid < grant) {
                writer.write(paid);
                break;  // buffer dead: checkpoint torn
            }
            // The harvester keeps feeding the buffer during the routine.
            if ((words & 63) == 0)
                cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                                harvester_.seriesResistance(now_),
                                64 * kJitStoreCycles * spc_);
            if (!vetoDone && words >= kJitAbortWindowWords) {
                vetoDone = true;
                // CTPL re-checks the wake condition during the first
                // part of the powerdown routine; a (possibly forged)
                // wake signal there vetoes the checkpoint and resumes
                // execution — leaving the *previous* image in place
                // with the ACK untouched.  The veto is one extra
                // monitor read (a single ADC conversion / one
                // comparator-output read) — a point sample of the
                // EMI-distorted rail, never the envelope.
                const Reading r = reading(cap_.voltage(), now_,
                                          /*envelope=*/false, sampleSeq_);
                if (withMonitors(*this, [&r](auto& primary, auto*) {
                        return primary.observe(r.hi).wake;
                    })) {
                    writer.write(paid - 1);
                    aborted = true;
                    break;
                }
            }
            writer.write(paid);
        }
        JitResult result = writer.finish();
        if (result.complete) {
            ++stats.jitCheckpointsComplete;
            runtime_.noteJitCheckpointComplete();
            enterSleep();
            GECKO_TRACE_EVENT(trace::EventKind::kSleepEnter,
                              trace::kFlagJitArmed, 0, 0);
            return;
        }
        if (aborted) {
            ++stats.jitCheckpointsAborted;
            GECKO_TRACE_EVENT(trace::EventKind::kJitSaveAbort, 0,
                              static_cast<std::uint64_t>(attempt),
                              static_cast<std::uint64_t>(words));
            // The wake ISR cancels the powerdown: keep running with the
            // volatile state intact.
            state_ = State::kRunning;
            return;
        }
        if (faulted && attempt < kJitSaveRetryLimit &&
            cap_.energy() - energyAtVoff_ > attemptEnergy) {
            // Bounded retry with linear backoff: idle a short while so a
            // transient disturbance burst can pass, then try again.
            runtime_.noteCkptSaveRetry();
            GECKO_TRACE_EVENT(trace::EventKind::kJitSaveRetry, 0,
                              static_cast<std::uint64_t>(attempt),
                              static_cast<std::uint64_t>(words));
            // The adaptive controller owns the backoff policy when
            // attached (linear in kNominal, exponential-with-cap once
            // escalated); the static linear schedule otherwise.
            const double backoff = static_cast<double>(
                defense_ ? defense_->backoffCycles(attempt)
                         : defense::linearBackoffCycles(attempt));
            cap_.discharge(backoff * epc_);
            cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                            harvester_.seriesResistance(now_),
                            backoff * spc_);
            now_ += backoff * spc_;
            GECKO_TRACE_TIME(now_);
            continue;
        }
        GECKO_TRACE_EVENT(trace::EventKind::kJitSaveTorn, 0,
                          static_cast<std::uint64_t>(attempt),
                          faulted ? 1u : 0u);
        if (faulted) {
            GECKO_TRACE_EVENT(trace::EventKind::kJitRetriesExhausted, 0,
                              static_cast<std::uint64_t>(attempt), 0);
            runtime_.setNow(now_);
            runtime_.noteCkptRetriesExhausted();
        }
        ++stats.jitCheckpointsTorn;
        enterSleep();
        GECKO_TRACE_EVENT(trace::EventKind::kSleepEnter,
                          trace::kFlagJitArmed, 0, 0);
        return;
    }
}

void
IntermittentSim::hardDeath()
{
    ++stats.hardDeaths;
    GECKO_TRACE_TIME(now_);
    GECKO_TRACE_EVENT(trace::EventKind::kPowerLoss,
                      runtime_.jitActive() ? trace::kFlagJitArmed : 0,
                      stats.hardDeaths, 0);
    if (runtime_.jitActive())
        ++stats.missedCheckpoints;
    enterSleep();
}

void
IntermittentSim::enterSleep()
{
    state_ = State::kSleeping;
    if (defense_) {
        // Physics estimate of the full recharge; in kDegraded this arms
        // the dwell that gates forgeable monitor wakes.
        defense_->noteSleepEnter(
            now_, cap_.timeToReach(device_.vOn,
                                   harvester_.openCircuitVoltage(now_),
                                   harvester_.seriesResistance(now_)));
    }
}

void
IntermittentSim::boot()
{
    ++stats.reboots;
    machine_.powerCycle();
    // Timer evidence for the boot protocol: how long did the previous
    // power-on period actually run?
    std::uint64_t prev_on = machine_.stats.cycles - cyclesAtBoot_;
    GECKO_TRACE_TIME(now_);
    GECKO_TRACE_EVENT(trace::EventKind::kBoot, 0, stats.reboots,
                      stats.reboots == 1 ? 0 : prev_on);
    runtime_.setNow(now_);
    std::uint64_t cycles = config_.bootOverheadCycles +
                           runtime_.onBoot(stats.reboots == 1
                                               ? ~std::uint64_t{0}
                                               : prev_on);
    cyclesAtBoot_ = machine_.stats.cycles;
    cap_.discharge(cycles * epc_);
    cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                    harvester_.seriesResistance(now_),
                    cycles * spc_);
    now_ += cycles * spc_;
    stats.bootCycles += cycles;
    if (defense_)
        defense_->noteEnergyCost(now_, static_cast<double>(cycles) * epc_);
    state_ = State::kRunning;
}

std::uint64_t
IntermittentSim::plannedCycles(double& carry, double dt) const
{
    carry += dt * device_.power.clockHz;
    const std::uint64_t planned =
        carry > 0 ? static_cast<std::uint64_t>(carry) : 0;
    carry -= static_cast<double>(planned);
    return planned;
}

int
IntermittentSim::runningStride(double energy, bool attacked) const
{
    const int stride = config_.quietStride;
    return attacked || (stride > 1 && energy - energyAtVbackup_ <
                                          quietMarginE_)
               ? 1
               : stride;
}

void
IntermittentSim::stepRunning(double end)
{
    const bool attacked = attackActive();
    const int stride = runningStride(cap_.energy(), attacked);
    const double dt = sampleIntervalS() * stride;

    if (tryBurst(attacked ? BurstKind::kStorm : BurstKind::kQuiet, stride,
                 dt, end))
        return;

    ++stats.quanta;

    // Cycles this quantum affords at the clock rate.  The capacitor is
    // debited this *planned* budget (not the machine's consumption) so
    // the energy trajectory is independent of instruction boundaries;
    // the interpreter's one-instruction budget overshoot (an I/O
    // transaction is hundreds of cycles) rides in the debt ledger and
    // is netted off the next quantum's machine budget, so the long-run
    // rate matches the clock exactly.
    const std::uint64_t planned = plannedCycles(cycleCarry_, dt);

    // Crossing-safe energy bound: a discharge capped here can never
    // cross the V_off floor mid-quantum, which is what lets the
    // machine's block backend execute whole superblocks between
    // discharge batches.
    const std::uint64_t can_run = energy::Capacitor::affordableCycles(
        cap_.energy(), epc_, energyAtVoff_);

    if (planned > can_run) {
        // The buffer cannot pay for the whole quantum: V_CC crosses
        // V_off mid-step and the brown-out detector resets the MCU (it
        // cannot throttle through an undervoltage).  Let the core run
        // what the remaining energy covers, settle the cycle ledger,
        // and die.
        std::int64_t b = static_cast<std::int64_t>(can_run) - debt_;
        std::uint64_t consumed = 0;
        if (b > 0) {
            machine_.run(static_cast<std::uint64_t>(b), &consumed);
            if (consumed > 0)
                runtime_.noteExecutionSinceCheckpoint();
            runtime_.onProgress();
        }
        std::int64_t owed = debt_ + static_cast<std::int64_t>(consumed);
        cap_.dischargeCycles(
            owed > 0 ? static_cast<std::uint64_t>(owed) : 0, epc_);
        debt_ = 0;
        cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                        harvester_.seriesResistance(now_), dt);
        now_ += dt;
        hardDeath();
        return;
    }

    std::int64_t b = static_cast<std::int64_t>(planned) - debt_;
    std::uint64_t consumed = 0;
    if (b > 0) {
        machine_.run(static_cast<std::uint64_t>(b), &consumed);
        if (consumed > 0)
            runtime_.noteExecutionSinceCheckpoint();
        runtime_.onProgress();
    }
    debt_ += static_cast<std::int64_t>(consumed) -
             static_cast<std::int64_t>(planned);
    cap_.dischargeCycles(planned, epc_);
    cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                    harvester_.seriesResistance(now_), dt);
    now_ += dt;

    analog::MonitorEvent ev = observeMonitor();
    if (ev.backup) {
        ++stats.backupSignals;
        GECKO_TRACE_EVENT(trace::EventKind::kBackupSignal,
                          runtime_.jitActive() ? 0 : trace::kFlagIgnored,
                          stats.backupSignals, 0);
        runtime_.onBackupSignal();
        if (runtime_.jitActive())
            doJitCheckpoint();
        else
            ++stats.ignoredBackups;
    }
    if (ev.wake) {
        ++stats.wakeSignals;
        GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal, 0,
                          stats.wakeSignals, 0);
    }
}

std::optional<IntermittentSim::SteadyViews>
IntermittentSim::steadyViews(double vLo, double vHi, double amp) const
{
    return withMonitors(*this, [&](const auto& primary, const auto* shadow)
                                   -> std::optional<SteadyViews> {
        SteadyViews views;
        const auto ev = analog::steadyEvent(primary, vLo, vHi, amp);
        if (!ev)
            return std::nullopt;
        views.primary = *ev;
        if (shadow) {
            // The shadow's view of a sample is shadowView of the envelope
            // [v − A, v + A], monotone in the rail: the band's ends give
            // its extreme samples.
            const auto at = [amp](double v) {
                return [=](auto& copy) {
                    return shadowView(copy, v - amp, v + amp);
                };
            };
            const auto seen = analog::steadyEvent(*shadow, at(vLo), at(vHi));
            if (!seen)
                return std::nullopt;
            views.shadow = *seen;
        }
        return views;
    });
}

template <class Sample>
IntermittentSim::Burst
IntermittentSim::march(BurstKind kind, int maxSteps, int stride, double dt,
                       double end, const energy::Capacitor::ChargePlan& plan,
                       Sample&& sample) const
{
    const double cf = cap_.capacitance();
    const double maxV = cap_.maxVoltage();
    const double sleepJ = device_.power.sleepPowerW * dt;

    Burst b;
    b.energy = cap_.energy();
    b.carry = cycleCarry_;
    b.now = now_;
    // Fixed-point reuse: a step is a pure function of its input energy
    // and draw, so when both repeat (the rail pinned at the clamp, the
    // saturated storm once the rail settles) the previous results are
    // the doubles the arithmetic would produce again.  NaN compares
    // unequal, so the first step computes.
    double stepIn = std::numeric_limits<double>::quiet_NaN();
    double stepJoules = stepIn;
    double stepOut = 0.0;
    // The cycle carry is its own fixed point whenever dt spans a whole
    // number of cycles (every attack_sweep victim's does): a repeat
    // reuses the split, as above.  Once the step repeats, the split is
    // what is left on the loop-carried chain.
    double carryIn = stepIn;
    double carryOut = 0.0;
    std::uint64_t carryPlanned = 0;
    while (b.steps < maxSteps && (b.steps == 0 || b.now < end)) {
        double carry = b.carry;
        std::uint64_t planned = 0;
        double joules = sleepJ;
        if (kind != BurstKind::kSleep) {
            // A quiet burst must keep stepRunning's stride choice; under
            // a tone the stride is pinned at 1.
            if (kind == BurstKind::kQuiet && b.steps > 0 &&
                runningStride(b.energy, false) != stride)
                break;
            if (carry != carryIn) {
                carryIn = carry;
                carryOut = carry;
                carryPlanned = plannedCycles(carryOut, dt);
            }
            planned = carryPlanned;
            carry = carryOut;
            if (planned > energy::Capacitor::affordableCycles(
                              b.energy, epc_, energyAtVoff_))
                break;  // this quantum browns out: the slow path must die
            joules = static_cast<double>(planned) * epc_;
        }
        if (b.energy != stepIn || joules != stepJoules) {
            stepIn = b.energy;
            stepJoules = joules;
            stepOut = energy::Capacitor::stepEnergy(b.energy, joules, plan,
                                                    cf, maxV);
        }
        const double e = stepOut;
        if (!sample(e, b.now + dt))
            break;
        b.energy = e;
        b.carry = carry;
        b.planned += planned;
        b.now += dt;
        b.eLo = b.steps == 0 ? e : std::min(b.eLo, e);
        b.eHi = b.steps == 0 ? e : std::max(b.eHi, e);
        ++b.steps;
    }
    return b;
}

std::optional<IntermittentSim::Certificate>
IntermittentSim::certify(BurstKind kind, double dt) const
{
    // ------------------------------------------------------------------
    // The events every skipped sample must repeat, decided before any
    // marching so a refusal costs a few branches.  Quiet: no controller
    // and the re-enable probe idle, so the only observation is a point
    // read (of the rail plus at most a weak tone) that must be a no-op.
    // Under an active tone a continuous monitor's envelope read, or an
    // ADC's point read of a tone too weak to move a latch (victims
    // without a controller), can be steady; the events it repeats must
    // be inert: backups ignored (JIT disarmed) and unable to let the
    // first quantum's probe re-enable JIT, wakes locked out (sleep),
    // the controller at its fixed point.
    // ------------------------------------------------------------------
    Certificate c;
    if (kind == BurstKind::kQuiet) {
        if (defense_ || runtime_.probeArmed())
            return std::nullopt;
        c.amp = emi_ ? emi_->amplitude() : 0.0;
        return c;
    }
    if (defense_ && config_.monitorKind == analog::MonitorKind::kAdc)
        return std::nullopt;
    const bool running = kind != BurstKind::kSleep;
    c.amp = emi_->amplitude();
    const double v = cap_.voltage();
    const auto predicted = steadyViews(v, v, c.amp);
    if (!predicted)
        return std::nullopt;
    c.views = *predicted;
    if (running && c.views.primary.backup &&
        (runtime_.jitActive() || runtime_.probeCanReenable()))
        return std::nullopt;
    // A sleep sample whose wake clears the brown-out lockout boots.
    if (!running && c.views.primary.wake && cap_.energy() > energyLockout_)
        return std::nullopt;
    if (defense_) {
        // Conservative bounds over any burst inside the horizon:
        // envelope spans (v + A) − (v − A) round to at least
        // 2A − 2ε(v + A); sample gaps to at most dt + 2ε(dt + t).
        const double tMax =
            now_ + dt * static_cast<double>(coalesceLimit_ + 1);
        defense::DefenseController::SteadyRun run;
        run.tFirst = now_ + dt;
        run.gapMax = dt + 4.0 * DBL_EPSILON * (dt + tMax);
        run.spanMin = 2.0 * c.amp -
                      4.0 * DBL_EPSILON * (c.amp + cap_.maxVoltage() + 1.0);
        run.primary = c.views.primary;
        run.shadow = c.views.shadow;
        run.sleeping = !running;
        c.perSample = defense_->steadyUnder(run);
        if (!c.perSample)
            return std::nullopt;
    }
    return c;
}

bool
IntermittentSim::certifiedBurst(BurstKind kind, const Certificate& c,
                                int maxSteps, int stride, double dt,
                                double end,
                                const energy::Capacitor::ChargePlan& plan)
{
    // ------------------------------------------------------------------
    // Trajectory proof.  With the source proven constant the burst's
    // evolution is fully determined: march the slow path's exact
    // per-step arithmetic on locals, then certify that every skipped
    // observation — each one samples an end-of-step rail inside the
    // marched band — repeats the predicted events with every latch
    // unchanged.  When that fails (typically a declining tail
    // approaching V_backup), halve: the shorter prefix spans a tighter
    // band.  The certified try's end state is committed by assignment.
    // ------------------------------------------------------------------
    const bool lockout = kind == BurstKind::kSleep && c.views.primary.wake;
    const auto belowLockout = [this, lockout](double e, double) {
        return !lockout || e <= energyLockout_;
    };
    const double cf = cap_.capacitance();
    Burst b;
    for (int mTry = maxSteps;;) {
        b = march(kind, mTry, stride, dt, end, plan, belowLockout);
        if (b.steps < 2)
            return false;
        if (steadyViews(std::sqrt(2.0 * b.eLo / cf),
                        std::sqrt(2.0 * b.eHi / cf), c.amp) == c.views)
            break;
        if (mTry == 2)
            return false;
        mTry = std::max(2, b.steps >> 1);
    }

    const auto k = static_cast<std::uint64_t>(b.steps);
    if (kind != BurstKind::kSleep && c.views.primary.backup)
        b.backups = k;
    if (c.views.primary.wake)
        b.wakes = k;
    // A point read draws one DCO jitter sample per observation; the
    // envelope read under a tone draws none.
    if (emi_ && !(kind != BurstKind::kQuiet &&
                  config_.monitorKind == analog::MonitorKind::kComparator))
        sampleSeq_ += static_cast<std::uint32_t>(k);
    if (c.perSample) {
        const double v = std::sqrt(2.0 * b.energy / cf);
        defense_->fastForward(*c.perSample, k, b.now,
                              0.5 * ((v - c.amp) + (v + c.amp)));
    }
    commitBurst(kind, b, plan.vOc);
    return true;
}

bool
IntermittentSim::evaluatedBurst(BurstKind kind, int maxSteps, int stride,
                                double dt, double end,
                                const energy::Capacitor::ChargePlan& plan)
{
    // ------------------------------------------------------------------
    // Each skipped sample is evaluated by observeMonitor's own
    // sampleMonitor, on a trial copy of the ADC latches and the jitter
    // sequence; with a controller, the shadow comparator and the
    // controller (and wakeAllowed on a forged sleep wake) run on copies
    // too.  The march stops before the first sample that is not
    // inert: a backup while JIT is armed or the probe could re-arm it,
    // a sleep wake that clears the lockout, a controller whose mode
    // changes inside a running burst (noteCommit then depends on which
    // side of the change each commit lands).  Running bursts fold the
    // controller's commits into one, exact only while commitsFold().
    // ------------------------------------------------------------------
    const bool running = kind != BurstKind::kSleep;
    if (running && defense_ && !defense_->commitsFold())
        return false;
    const bool jitArmed =
        runtime_.jitActive() || runtime_.probeCanReenable();
    const double cf = cap_.capacitance();
    const defense::Mode mode = defense_ ? defense_->mode()
                                        : defense::Mode::kNominal;

    analog::AdcMonitor monitor = adc_;
    analog::ComparatorMonitor shadow = comparator_;
    std::optional<defense::DefenseController> controller;
    std::uint32_t seq = 0;
    std::uint64_t backups = 0;
    std::uint64_t wakes = 0;
    bool modeChanged = false;
    const auto startTrial = [&] {
        monitor = adc_;
        shadow = comparator_;
        if (defense_)
            controller = *defense_;
        seq = sampleSeq_;
        backups = wakes = 0;
    };
    const auto step = [&](double e, double t) {
        analog::AdcMonitor read = monitor;
        std::uint32_t next = seq;
        const auto inert = [&](const analog::MonitorEvent& ev) {
            return running ? !(ev.backup && jitArmed)
                           : !(ev.wake && e > energyLockout_);
        };
        const std::optional<analog::MonitorEvent> ev = sampleMonitor(
            read, controller ? &shadow : nullptr,
            controller ? &*controller : nullptr, std::sqrt(2.0 * e / cf),
            t, next, inert);
        if (!ev)
            return false;
        if (controller) {
            if (running && controller->mode() != mode) {
                modeChanged = true;
                return false;
            }
            if (!running && ev->wake)
                controller->wakeAllowed(t);
        }
        monitor = read;
        seq = next;
        backups += ev->backup ? 1 : 0;
        wakes += ev->wake ? 1 : 0;
        return true;
    };

    startTrial();
    Burst b = march(kind, maxSteps, stride, dt, end, plan, step);
    if (modeChanged && b.steps >= 2) {
        // The shadow and controller copies ran one sample too far:
        // replay the prefix alone.
        const int steps = b.steps;
        startTrial();
        b = march(kind, steps, stride, dt, end, plan, step);
    }
    if (b.steps < 2)
        return false;

    sampleSeq_ = seq;
    adc_ = monitor;
    if (controller) {
        comparator_ = shadow;
        *defense_ = *controller;
    }
    b.backups = running ? backups : 0;
    b.wakes = wakes;
    commitBurst(kind, b, plan.vOc);
    return true;
}

void
IntermittentSim::commitBurst(BurstKind kind, const Burst& b, double voc)
{
    // noteSource settles the outage latch exactly as the skipped
    // chargeFrom calls would.
    const auto k = static_cast<std::uint64_t>(b.steps);
    cap_.noteSource(voc);
    cap_.commitEnergy(b.energy);
    now_ = b.now;
    stats.wakeSignals += b.wakes;
    if (kind == BurstKind::kSleep) {
        stats.sleepSamples += k;
        stats.coalescedSleepSamples += k;
        return;
    }
    if (b.backups > 0) {
        stats.backupSignals += b.backups;
        stats.ignoredBackups += b.backups;
        runtime_.onBackupSignal();
    }
    cycleCarry_ = b.carry;
    stats.quanta += k;
    stats.coalescedQuanta += k;
    ++stats.coalescedBursts;

    // One fused run.  Sequential quanta stop the machine at cumulative
    // instruction boundaries ≥ Σplanned − debt₀, which is exactly where
    // a single budget of that size stops it; a halt or latched fault
    // that exits early is topped up with burn-budget runs, as the
    // skipped quanta would have done one by one.
    std::int64_t budget = static_cast<std::int64_t>(b.planned) - debt_;
    std::uint64_t consumedTotal = 0;
    if (budget > 0) {
        const std::uint64_t target = static_cast<std::uint64_t>(budget);
        for (int i = 0; i < 4 && consumedTotal < target; ++i) {
            std::uint64_t c = 0;
            machine_.run(target - consumedTotal, &c);
            consumedTotal += c;
            if (c == 0)
                break;
        }
        if (consumedTotal > 0)
            runtime_.noteExecutionSinceCheckpoint();
        runtime_.onProgress();
    }
    debt_ += static_cast<std::int64_t>(consumedTotal) -
             static_cast<std::int64_t>(b.planned);
}

bool
IntermittentSim::tryBurst(BurstKind kind, int stride, double dt, double end)
{
    // Every skipped trace macro must be inert (no buffer installed),
    // and a faulted monitor's readings are not a function of the rail.
    if (coalesceLimit_ < 2 || monitorFault_ || trace::current() != nullptr)
        return false;
    const std::optional<Certificate> cert = certify(kind, dt);
    // An ADC's point reads under a tone can be evaluated one by one.
    const bool evaluable = config_.monitorKind == analog::MonitorKind::kAdc &&
                           emi_ && emi_->enabled();
    if (!cert && !evaluable)
        return false;

    // ------------------------------------------------------------------
    // Burst-length selection.  Start from the configured limit and
    // halve until the harvester is *provably* constant over the horizon
    // and the horizon ends by toneUntil_, so the tone every skipped
    // sample's updateAttack would set is the one set now.  The +1 step
    // of margin keeps the checks conservative against the burst's own
    // floating-point time accumulation.
    // ------------------------------------------------------------------
    int m = coalesceLimit_;
    for (; m >= 2; m >>= 1) {
        const double span = dt * static_cast<double>(m + 1);
        if (now_ + span <= toneUntil_ && harvester_.constantOver(now_, span))
            break;
    }
    if (m < 2)
        return false;
    const auto plan = cap_.chargePlan(harvester_.openCircuitVoltage(now_),
                                      harvester_.seriesResistance(now_), dt);
    return (cert && certifiedBurst(kind, *cert, m, stride, dt, end, plan)) ||
           (evaluable && evaluatedBurst(kind, m, stride, dt, end, plan));
}

void
IntermittentSim::stepSleeping(double end)
{
    // Fast path: no tone now or during the whole charge, steady source —
    // jump straight to the wake threshold.  A faulted monitor must keep
    // sampling: its (wrong) readings decide the wake, not the rail.
    if (!attackActive() && !monitorFault_) {
        double voc = harvester_.openCircuitVoltage(now_);
        double rs = harvester_.seriesResistance(now_);
        double t_wake = cap_.timeToReach(device_.vOn, voc, rs);
        bool tone_later = false;
        if (schedule_ && emi_) {
            double horizon = t_wake >= 0 ? now_ + t_wake : now_ + 1.0;
            const attack::AttackSchedule::Tone tone =
                schedule_->toneAt(now_);
            tone_later = tone.window || tone.until < horizon;
        }
        if (!tone_later && t_wake >= 0 &&
            harvester_.steadyOver(now_, t_wake) &&
            (defense_ == nullptr ||
             defense_->wakeAllowed(now_ + t_wake))) {
            cap_.chargeFrom(voc, rs, t_wake);
            now_ += t_wake + sampleIntervalS();
            adc_.reset(cap_.voltage());
            comparator_.reset(cap_.voltage());
            ++stats.wakeSignals;
            GECKO_TRACE_TIME(now_);
            GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal, 0,
                              stats.wakeSignals, 0);
            boot();
            return;
        }
    }

    bool attacked = attackActive();
    double dt = sampleIntervalS() * (attacked ? 1 : config_.quietStride);
    if (attacked && tryBurst(BurstKind::kSleep, 1, dt, end))
        return;
    ++stats.sleepSamples;
    cap_.discharge(device_.power.sleepPowerW * dt);
    cap_.chargeFrom(harvester_.openCircuitVoltage(now_),
                    harvester_.seriesResistance(now_), dt);
    now_ += dt;

    analog::MonitorEvent ev = observeMonitor();
    if (ev.wake) {
        ++stats.wakeSignals;
        // Brown-out lockout: the PMU holds reset until V_CC clears
        // V_off plus hysteresis.  A fake wake can only boot the system
        // inside the paper's malicious window V_off < V_fail < V_backup
        // (or legitimately above).
        const bool clear = cap_.voltage() > device_.vOff + kBootLockoutV;
        // In kDegraded the controller distrusts the forgeable monitor
        // wake and defers the boot until the physics-timed recharge
        // dwell has elapsed (forward-progress ratchet, DESIGN.md §11).
        const bool allowed =
            defense_ == nullptr || defense_->wakeAllowed(now_);
        GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal,
                          static_cast<std::uint16_t>(
                              (clear ? 0 : trace::kFlagLockout) |
                              (allowed ? 0 : trace::kFlagIgnored)),
                          stats.wakeSignals, 0);
        if (clear && allowed)
            boot();
    }
}

void
IntermittentSim::runLoop(double end, std::uint64_t targetCompletions)
{
    const bool bounded = targetCompletions != kNoCompletionTarget;
    if (bounded && machine_.stats.completions >= targetCompletions)
        return;
    GECKO_TRACE_TIME(now_);
    // Initial power-up.
    if (nvm_.bootCount == 0 && cap_.voltage() >= device_.vOn &&
        state_ == State::kSleeping) {
        ++stats.wakeSignals;
        GECKO_TRACE_EVENT(trace::EventKind::kWakeSignal, 0,
                          stats.wakeSignals, 0);
        boot();
    }
    // A finite completion target is polled on the historical 0.01 s
    // cadence — inside this one loop, without the old driver's per-slice
    // run() re-entry — so a bounded run settles up to one poll slice
    // past the landing quantum, exactly as it always has (the fault
    // campaign's post-completion evidence depends on that tail).
    // Coalesced bursts are capped at the poll horizon, so the poll sees
    // every completion a burst could have produced.
    double pollEnd = bounded ? std::min(now_ + kCompletionPollS, end) : end;
    while (now_ < end) {
        if (bounded && now_ >= pollEnd) {
            if (machine_.stats.completions >= targetCompletions)
                break;
            pollEnd = std::min(now_ + kCompletionPollS, end);
        }
        GECKO_TRACE_TIME(now_);
        updateAttack();
        if (state_ == State::kRunning)
            stepRunning(pollEnd);
        else
            stepSleeping(pollEnd);
    }
    stats.simTimeS = now_;
    stats.replayedCompletions = machine_.replayedCompletions();
    stats.steadyLoopIterations = machine_.steadyLoopIterations();
}

void
IntermittentSim::run(double simSeconds)
{
    runLoop(now_ + simSeconds, kNoCompletionTarget);
}

bool
IntermittentSim::runUntilCompletions(std::uint64_t target,
                                     double maxSimSeconds)
{
    runLoop(now_ + maxSimSeconds, target);
    return machine_.stats.completions >= target;
}

Counters&
Counters::operator+=(const Counters& other)
{
    forEachField([&](const metrics::CounterField&, auto get) {
        if constexpr (std::is_integral_v<
                          std::remove_cvref_t<decltype(get(other))>>)
            get(*this) += get(other);
    });
    return *this;
}

Counters
IntermittentSim::counters() const
{
    return {machine_.stats, stats, runtime_.stats,
            defense_ ? defense_->stats() : defense::DefenseStats{}};
}

double
IntermittentSim::checkpointFailureRate() const
{
    std::uint64_t fails = stats.jitCheckpointsTorn +
                          stats.jitCheckpointsAborted +
                          stats.missedCheckpoints;
    std::uint64_t total = stats.jitCheckpointAttempts + stats.missedCheckpoints;
    if (total == 0)
        return 0.0;
    return static_cast<double>(fails) / static_cast<double>(total);
}

std::uint64_t
runToCompletion(const compiler::CompiledProgram& compiled, Nvm& nvm,
                IoHub& io)
{
    Machine machine(compiled, nvm, io);
    machine.setStagedIo(compiled.scheme != Scheme::kNvp);
    machine.setContinuous(false);
    std::uint64_t total = 0;
    while (!machine.halted()) {
        std::uint64_t consumed = 0;
        RunExit exit = machine.run(1u << 20, &consumed);
        total += consumed;
        if (exit == RunExit::kFaulted)
            throw std::runtime_error("program faulted in golden run");
        if (total > (1ull << 36))
            throw std::runtime_error("golden run did not terminate");
    }
    return total;
}

void
IntermittentSim::archiveState(campaign::Archive& ar)
{
    ar.section("intermittent_sim");
    // Configuration fingerprint: the snapshot only makes sense inside
    // an identically reconstructed simulator.  These are guards, not
    // restored values.
    ar.check(config_.memWords, "mem words");
    ar.check(static_cast<std::uint64_t>(
                 machine_.program().scheme),
             "scheme");
    ar.check(static_cast<std::uint64_t>(config_.monitorKind),
             "monitor kind");
    ar.check(config_.continuous ? 1 : 0, "continuous flag");
    ar.check(static_cast<std::uint64_t>(config_.jitRamWords),
             "jit ram words");
    ar.check(config_.defense.enabled ? 1 : 0, "defense enabled");
    ar.check(emi_ != nullptr ? 1 : 0, "emi source attached");
    ar.check(schedule_ != nullptr ? 1 : 0, "attack schedule attached");
    ar.check(defense_ != nullptr ? 1 : 0, "shadow monitor");

    std::uint8_t state = static_cast<std::uint8_t>(state_);
    ar.u8(state);
    if (!ar.saving()) {
        if (state > static_cast<std::uint8_t>(State::kSleeping))
            throw campaign::SnapshotError("sim: bad state encoding");
        state_ = static_cast<State>(state);
    }
    ar.boolean(monitorFaultTraced_);
    ar.f64(now_);
    ar.f64(cycleCarry_);
    ar.i64(debt_);
    ar.u64(cyclesAtBoot_);
    ar.u32(sampleSeq_);

    ar.counters(stats);

    nvm_.archiveState(ar);
    machine_.archiveState(ar);
    runtime_.archiveState(ar);
    cap_.archiveState(ar);
    withMonitors(*this, [&ar](auto& primary, auto* shadow) {
        primary.archiveState(ar);
        if (shadow)
            shadow->archiveState(ar);
    });
    if (defense_)
        defense_->archiveState(ar);
    if (emi_)
        emi_->archiveState(ar);
}

}  // namespace gecko::sim
