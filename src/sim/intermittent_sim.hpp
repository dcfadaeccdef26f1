#ifndef GECKO_SIM_INTERMITTENT_SIM_HPP_
#define GECKO_SIM_INTERMITTENT_SIM_HPP_

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>

#include "analog/voltage_monitor.hpp"
#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "compiler/pipeline.hpp"
#include "defense/controller.hpp"
#include "device/device_profile.hpp"
#include "energy/capacitor.hpp"
#include "energy/harvester.hpp"
#include "metrics/counter_field.hpp"
#include "runtime/gecko_runtime.hpp"
#include "sim/machine.hpp"

/**
 * @file
 * The full intermittent-system simulation (paper Fig. 1): harvester →
 * capacitor → MCU, with a voltage monitor watching V_CC — and an
 * optional EMI source superimposing an attack tone on what the monitor
 * sees.
 *
 * Time advances in monitor-sample quanta.  While running, the machine
 * executes the cycles each quantum affords (energy-limited), the
 * capacitor discharges/charges, and the monitor observes
 * V_CC + v_EMI(t).  A backup event triggers the word-by-word JIT
 * checkpoint (when armed); a hard brown-out (monitor never fired — e.g.
 * EMI masking the window) loses the volatile state.  While sleeping the
 * capacitor recharges until a wake event boots the scheme's runtime.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::sim {

/** Simulation parameters beyond the device profile. */
struct SimConfig {
    analog::MonitorKind monitorKind = analog::MonitorKind::kAdc;
    energy::CapacitorConfig cap;
    /// NVM data size in words.
    std::size_t memWords = 16384;
    /// CTPL SRAM/peripheral snapshot size included in every JIT
    /// checkpoint/restore (cost-only words; makes the checkpoint-churn
    /// DoS expensive, as on real boards — the FR5994 has 8 KiB SRAM).
    int jitRamWords = 4096;
    /// Fixed cold-boot overhead on every wake (clock/DCO settling,
    /// peripheral re-initialisation — milliseconds-scale on real
    /// MSP430 boards), independent of the recovery scheme.
    std::uint64_t bootOverheadCycles = 16000;
    /// Restart the program on completion (continuous sensing loop).
    bool continuous = true;
    /// V_backup override; any value <= 0 (the default -1) means "use
    /// the device profile's value".
    double vBackupOverride = -1.0;
    /// Stride multiplier applied to the monitor sampling interval while
    /// no attack tone is active (pure speed knob; crossings detect a few
    /// µs late, which the V_backup→V_off energy margin absorbs).
    int quietStride = 64;
    /// Component seed for the monitor's DCO sample jitter, combined with
    /// the global GECKO_SEED (exp::applyGlobalSeed).  The default 0 with
    /// no global seed preserves the historical jitter sequence.
    std::uint64_t monitorSeed = 0;
    /// Burst fast path (DESIGN.md §14): maximum number of monitor
    /// samples fused into one burst — running quanta into one machine
    /// run, or locked-out sleep samples — when the guard proves the
    /// burst indistinguishable from per-sample stepping.
    /// -1 = resolve from GECKO_COALESCE (default 1024); 0 or 1 = off.
    int coalesceQuanta = -1;
    /// Adaptive defense controller (DESIGN.md §11).  Off by default:
    /// the static-paper configurations and their byte-exact outputs are
    /// untouched.  Takes effect only for the guarded GECKO schemes.
    defense::DefenseConfig defense;
};

/** Simulation-level counters. */
struct SimStats {
    double simTimeS = 0.0;
    std::uint64_t reboots = 0;
    std::uint64_t hardDeaths = 0;
    std::uint64_t backupSignals = 0;
    std::uint64_t wakeSignals = 0;
    std::uint64_t ignoredBackups = 0;
    std::uint64_t jitCheckpointAttempts = 0;
    std::uint64_t jitCheckpointsComplete = 0;
    std::uint64_t jitCheckpointsTorn = 0;
    /// Checkpoints vetoed by a (possibly forged) wake signal inside the
    /// abort window — they leave the previous image in place unflagged.
    std::uint64_t jitCheckpointsAborted = 0;
    /// Hard deaths with the JIT protocol armed but no checkpoint taken
    /// in that power cycle (EMI masked the backup window).
    std::uint64_t missedCheckpoints = 0;
    std::uint64_t bootCycles = 0;
    // ------------------------------------------------------------------
    // Pure diagnostics (never archived): quantum-loop and machine
    // telemetry for the bench drivers and the perf regression guard.
    // Excluded from snapshots on purpose so campaign aggregates stay
    // bit-identical whether or not a fast path engaged.
    // ------------------------------------------------------------------
    /// Monitor-sample quanta simulated while running (slow + coalesced).
    std::uint64_t quanta = 0;
    /// Quanta absorbed by the coalescing fast path.
    std::uint64_t coalescedQuanta = 0;
    /// Number of coalesced bursts (each fuses ≥ 2 quanta).
    std::uint64_t coalescedBursts = 0;
    /// Monitor samples stepped asleep (slow + coalesced; the analytic
    /// wake jump takes none).
    std::uint64_t sleepSamples = 0;
    /// Sleep samples absorbed by sleep bursts (never counted in quanta).
    std::uint64_t coalescedSleepSamples = 0;
    /// Steps burst marches stepped on locals, committed or not.
    std::uint64_t marchSteps = 0;
    /// Completions the machine applied from its record instead of
    /// executing them (Machine::replayedCompletions).
    std::uint64_t replayedCompletions = 0;
    /// Loop iterations the machine applied in closed form instead of
    /// executing them (Machine::steadyLoopIterations).
    std::uint64_t steadyLoopIterations = 0;
    /// Point reads formed under a keyed tone (an evaluated burst's
    /// trial reads included).
    std::uint64_t pointReads = 0;
    /// Point reads that called glibc `sin`: the zone read could not
    /// decide, or the read's value is observed (DESIGN.md §14).
    std::uint64_t exactReads = 0;

    bool operator==(const SimStats&) const = default;

    /** The field list (metrics/counter_field.hpp); the JIT checkpoint
     *  counters go by their campaign keys. */
    template <class Fn>
    static constexpr void forEachField(Fn&& fn)
    {
        fn({"sim_time_s"}, &SimStats::simTimeS);
        fn({"reboots"}, &SimStats::reboots);
        fn({"hard_deaths"}, &SimStats::hardDeaths);
        fn({"backup_signals"}, &SimStats::backupSignals);
        fn({"wake_signals"}, &SimStats::wakeSignals);
        fn({"ignored_backups"}, &SimStats::ignoredBackups);
        fn({"ckpt_attempts"}, &SimStats::jitCheckpointAttempts);
        fn({"ckpt_complete"}, &SimStats::jitCheckpointsComplete);
        fn({"ckpt_torn"}, &SimStats::jitCheckpointsTorn);
        fn({"ckpt_aborted"}, &SimStats::jitCheckpointsAborted);
        fn({"missed_ckpts"}, &SimStats::missedCheckpoints);
        fn({"boot_cycles"}, &SimStats::bootCycles);
        fn({"quanta", false}, &SimStats::quanta);
        fn({"coalesced_quanta", false}, &SimStats::coalescedQuanta);
        fn({"coalesced_bursts", false}, &SimStats::coalescedBursts);
        fn({"sleep_samples", false}, &SimStats::sleepSamples);
        fn({"coalesced_sleep_samples", false},
           &SimStats::coalescedSleepSamples);
        fn({"march_steps", false}, &SimStats::marchSteps);
        fn({"replayed_completions", false}, &SimStats::replayedCompletions);
        fn({"steady_loop_iterations", false},
           &SimStats::steadyLoopIterations);
        fn({"point_reads", false}, &SimStats::pointReads);
        fn({"exact_reads", false}, &SimStats::exactReads);
    }
};
static_assert(metrics::listsEveryField<SimStats>());

/** Every counter of one simulation (DESIGN.md "Counters"): results,
 *  totals and oracles hold one instead of copying counters by hand. */
struct Counters {
    ExecStats exec;
    SimStats sim;
    runtime::RuntimeStats runtime;
    /// Default-valued when the victim has no defense controller.
    defense::DefenseStats defense;

    bool operator==(const Counters&) const = default;

    /** Add the integer counters; the doubles are not counts. */
    Counters& operator+=(const Counters& other);

    /** The four field lists in a row: `fn(field, get)`, `get(c)` being
     *  that field of a (const or mutable) Counters `c`. */
    template <class Fn>
    static void forEachField(Fn&& fn)
    {
        const auto walk = [&fn](auto group) {
            using Stats = std::remove_cvref_t<decltype(Counters{}.*group)>;
            Stats::forEachField([&fn, group](const metrics::CounterField& f,
                                             auto member) {
                fn(f, [group, member](auto& c) -> auto& {
                    return c.*group.*member;
                });
            });
        };
        walk(&Counters::exec);
        walk(&Counters::sim);
        walk(&Counters::runtime);
        walk(&Counters::defense);
    }
};

/**
 * Parse a GECKO_COALESCE value: a non-negative decimal integer burst
 * limit (0 or 1 = off, values above 65536 clamp to 65536); null or
 * empty means the default, 1024.
 * @throws std::invalid_argument on any other value.
 */
int parseCoalesceLimit(const char* value);

/** Harvester + capacitor + monitor + MCU + (optional) attacker. */
class IntermittentSim
{
  public:
    /**
     * @param compiled  program + region metadata (not owned)
     * @param device    board profile supplying thresholds and monitors
     * @param config    simulation knobs
     * @param harvester energy source (not owned)
     * @param io        peripherals (not owned)
     */
    IntermittentSim(const compiler::CompiledProgram& compiled,
                    const device::DeviceProfile& device,
                    const SimConfig& config, energy::Harvester& harvester,
                    IoHub& io);

    /** Attach the attacker's signal source (nullptr = no attack). */
    void setEmiSource(attack::EmiSource* source) { emi_ = source; }

    // ------------------------------------------------------------------
    // Fault-injection hooks (src/fault campaign; see DESIGN.md).
    // ------------------------------------------------------------------
    /**
     * Monitor fault: maps the voltage the monitor would see (rail + EMI)
     * to the voltage it actually reports, at simulated time `t`.  Models
     * stuck-at and offset faults in the sensing path.  Applied to every
     * observation, including the checkpoint-veto read.
     */
    void setMonitorFault(std::function<double(double v, double t)> f)
    {
        monitorFault_ = std::move(f);
    }

    /**
     * JIT write fault: called once per checkpoint word with its index
     * (0-based across the SRAM-padding and context words); returning
     * true makes that word's write fail transiently, abandoning the
     * attempt.  The simulator retries with backoff up to
     * kJitSaveRetryLimit, then reports exhaustion to the runtime.
     */
    void setJitWriteFault(std::function<bool(int word)> f)
    {
        jitWriteFault_ = std::move(f);
    }

    /**
     * Drive the source from a schedule (tone windows over time).  The
     * source must also be set.
     */
    void setAttackSchedule(const attack::AttackSchedule* schedule)
    {
        schedule_ = schedule;
    }

    /** Advance the simulation by `simSeconds` of simulated time. */
    void run(double simSeconds);

    /**
     * Run until the program completed `target` times or `maxSimSeconds`
     * elapsed.
     * @return true if the target was reached.
     */
    bool runUntilCompletions(std::uint64_t target, double maxSimSeconds);

    double now() const { return now_; }
    Machine& machine() { return machine_; }
    const Machine& machine() const { return machine_; }
    runtime::GeckoRuntime& geckoRuntime() { return runtime_; }
    Nvm& nvm() { return nvm_; }
    energy::Capacitor& capacitor() { return cap_; }
    /** Adaptive controller, or null when SimConfig::defense is off. */
    defense::DefenseController* defenseController()
    {
        return defense_.get();
    }

    /** Every stats struct as it stands. */
    Counters counters() const;

    /** Checkpoint failure rate F = N_fail / N_checkpoints (§IV-B2). */
    double checkpointFailureRate() const;

    /**
     * Serialize/restore the full simulation state: a configuration
     * fingerprint (guard — restoring into a differently configured
     * instance throws campaign::SnapshotError), the simulator's own
     * clock/latches/stats, and every owned component (NVM, machine,
     * runtime, capacitor, monitors, defense controller) plus the
     * attached EMI source.  The caller archives the IoHub separately
     * (the simulator does not own it); the fault hooks and schedule
     * are reconstructed from the job spec, never serialized.  Only
     * call at a `run()` boundary — mid-quantum state lives on the
     * stack.
     */
    void archiveState(campaign::Archive& ar);

    SimStats stats;

  private:
    /// Call `fn(primary, shadow)` with each monitor as its own type: the
    /// one SimConfig::monitorKind names, and the other (null without a
    /// controller).  `self` is `*this`, const or not.
    template <class Self, class Fn>
    static decltype(auto) withMonitors(Self& self, Fn&& fn)
    {
        if (self.config_.monitorKind == analog::MonitorKind::kAdc)
            return fn(self.adc_, self.defense_ ? &self.comparator_ : nullptr);
        return fn(self.comparator_, self.defense_ ? &self.adc_ : nullptr);
    }
    /// The primary's sample interval.
    double sampleIntervalS() const
    {
        return withMonitors(*this, [](const auto& primary, const auto*) {
            return primary.sampleIntervalS();
        });
    }
    bool attackActive() const;
    void updateAttack();
    /// One monitor reading and the event it raised: the window [lo, hi]
    /// a continuous monitor sees, or a point read (lo == hi; NaN when a
    /// zone read decided the event without forming the read).
    struct Reading {
        analog::MonitorEvent ev;
        double lo = 0.0;
        double hi = 0.0;
        /// The monitor-fault hook changed it.
        bool faulted = false;
    };
    /// Form the reading of rail `v` at `t` and observe it on `monitor`:
    /// the envelope [v − A, v + A] when `envelope`, else the point read
    /// v + tone(t + jitter(++seq)); then the monitor-fault hook (not
    /// ordered: a hook may invert a window; `monitor` sees it ordered).
    /// A point read under a tone takes its event from its zone
    /// (attack::observePointRead) unless its value is observed:
    /// `exact`, the fault hook or a trace buffer.
    template <class Monitor>
    Reading observeReading(Monitor& monitor, double v, double t,
                           bool envelope, bool exact, std::uint32_t& seq);
    /// One monitor sample of rail `v` at `t`, on the live monitors
    /// (observeMonitor) or an evaluated burst's trial copies: observe
    /// the reading, trace a trip, and — unless `admit(event)`
    /// refuses the sample (then nullopt) — feed the shadow and the
    /// controller (both null without a controller) through the
    /// shadow-view rule.
    template <class Primary, class Shadow, class Admit>
    std::optional<analog::MonitorEvent>
    sampleMonitor(Primary& primary, Shadow* shadow,
                  defense::DefenseController* controller, double v,
                  double t, std::uint32_t& seq, Admit&& admit);
    /// sampleMonitor on the live monitors at the current rail and time.
    analog::MonitorEvent observeMonitor();
    /// The cycle-carry split: the whole cycles a quantum of `dt` plans
    /// on top of `carry`, which keeps the fraction.
    std::uint64_t plannedCycles(double& carry, double dt) const;
    /// The quiet-stride rule: a running step at stored energy `energy`
    /// samples at the full rate under a tone and within four coarse
    /// quanta of V_backup (so the crossing is caught with fine
    /// granularity), else every quietStride-th sample.
    int runningStride(double energy, bool attacked) const;
    /// Shared driver behind run()/runUntilCompletions(): advance until
    /// `end` or until the program completed `targetCompletions` times
    /// (kNoCompletionTarget = unbounded).  The target is polled on the
    /// historical 0.01 s cadence inside this one loop — no per-slice
    /// run() re-entry — so bounded runs keep their settle tail.
    void runLoop(double end, std::uint64_t targetCompletions);
    void stepRunning(double end);
    void stepSleeping(double end);

    // ------------------------------------------------------------------
    // Burst fast path (DESIGN.md §14).
    // ------------------------------------------------------------------
    /// The three phases a burst fuses steps of: quiet-stride running
    /// quanta (no active tone), running quanta under an active tone,
    /// and sleep samples under an active tone.  Each burst either
    /// certifies that every skipped observation repeats one known event
    /// or, for an ADC primary under a tone and for the quiet samples of
    /// a victim with a controller, evaluates each one.
    enum class BurstKind { kQuiet, kStorm, kSleep };
    /// Monitor events every skipped sample repeats: the primary's, and
    /// the shadow's (defense cross-validation; `{}` without one).
    struct SteadyViews {
        analog::MonitorEvent primary;
        analog::MonitorEvent shadow;
        bool operator==(const SteadyViews&) const = default;
    };
    /// End state of a marched burst: `steps` slow-path steps replayed
    /// exactly on locals, committed by assignment.
    struct Burst {
        int steps = 0;
        double energy = 0.0;
        double carry = 0.0;
        double now = 0.0;
        std::uint64_t planned = 0;  ///< Σ planned cycles (running)
        double eLo = 0.0;           ///< min/max end-of-step energy
        double eHi = 0.0;
        std::uint64_t backups = 0;  ///< events the skipped samples raise
        std::uint64_t wakes = 0;
    };
    /// What a certified burst's skipped samples repeat: the views, the
    /// tone amplitude they were certified under, and (with a
    /// controller) the counter increments of each sample at its fixed
    /// point.
    struct Certificate {
        SteadyViews views;
        double amp = 0.0;
        std::optional<defense::DefenseStats> perSample;
    };
    /// Prove a burst of `kind` indistinguishable from per-sample
    /// stepping and commit it.  @return true if it advanced the
    /// simulation.
    bool tryBurst(BurstKind kind, int stride, double dt, double end);
    /// The certificate predicted at the current rail, or nullopt.
    std::optional<Certificate> certify(BurstKind kind, double dt) const;
    /// A burst whose skipped observations all repeat the events `c`
    /// predicts: the longest checked prefix of one march whose band
    /// certifies.
    bool certifiedBurst(BurstKind kind, const Certificate& c, int maxSteps,
                        int stride, double dt, double end,
                        const energy::Capacitor::ChargePlan& plan);
    /// A burst whose observations (an ADC primary under a tone, or a
    /// defended victim's quiet samples) are each evaluated on trial
    /// copies of `primary`, `shadow` (null without a controller) and
    /// the controller, up to the first one that is not inert.
    template <class Primary, class Shadow>
    bool evaluatedBurst(Primary& primary, Shadow* shadow, BurstKind kind,
                        int maxSteps, int stride, double dt, double end,
                        const energy::Capacitor::ChargePlan& plan);
    /// Commit a marched burst: energy, clock, counters, and for running
    /// quanta one fused machine run.
    void commitBurst(BurstKind kind, const Burst& b, double voc);
    /// The steady views of every sample with the rail in [vLo, vHi]
    /// under tone amplitude `amp`, or nullopt.
    std::optional<SteadyViews> steadyViews(double vLo, double vHi,
                                           double amp) const;
    /// March up to `maxSteps` steps of `kind` on locals: the exact
    /// per-step arithmetic of the slow path, stopping before a step it
    /// would end differently (stride change, brown-out) and at `end`.
    /// `sample(e, t)` sees each step's end-of-step energy and sample
    /// time, and returns false to stop before that step.  `check(b)`
    /// sees the march after every step whose count is a power of two
    /// and, if it ended anywhere else, at its end; it returns false to
    /// stop the march there.  @return the whole march.
    template <class Sample, class Check>
    Burst march(BurstKind kind, int maxSteps, int stride, double dt,
                double end, const energy::Capacitor::ChargePlan& plan,
                Sample&& sample, Check&& check) const;
    void doJitCheckpoint();
    void hardDeath();
    void boot();
    void enterSleep();

    enum class State { kRunning, kSleeping };

    const device::DeviceProfile& device_;
    SimConfig config_;
    energy::Harvester& harvester_;
    Nvm nvm_;
    Machine machine_;
    runtime::GeckoRuntime runtime_;
    energy::Capacitor cap_;
    /// V_backup: the profile's, or SimConfig::vBackupOverride.
    double vBackup_;
    /// The board's two monitor paths (withMonitors).
    analog::AdcMonitor adc_;
    analog::ComparatorMonitor comparator_;
    std::unique_ptr<defense::DefenseController> defense_;
    attack::EmiSource* emi_ = nullptr;
    const attack::AttackSchedule* schedule_ = nullptr;
    /// Until when the tone updateAttack last set holds
    /// (AttackSchedule::Tone::until; infinity without a schedule).  Set
    /// at the top of every loop iteration, before any burst reads it.
    double toneUntil_ = std::numeric_limits<double>::infinity();
    std::function<double(double v, double t)> monitorFault_;
    std::function<bool(int word)> jitWriteFault_;

    State state_ = State::kSleeping;
    // First-divergence latch so a monitor fault is traced once per case,
    // not once per sample.
    bool monitorFaultTraced_ = false;
    double now_ = 0.0;
    double cycleCarry_ = 0.0;
    /// Cycle ledger: machine cycles executed minus cycles paid for
    /// (discharged).  The capacitor is debited the *planned* clock
    /// budget every quantum — making its trajectory independent of
    /// where instruction boundaries land — while the machine's one-
    /// instruction budget overshoot is carried here and netted off the
    /// next quantum's budget.  Settled (paid down) on brown-out.
    std::int64_t debt_ = 0;
    std::uint64_t cyclesAtBoot_ = 0;
    std::uint32_t sampleSeq_ = 0;
    double energyAtVoff_;
    double energyAtVbackup_;
    /// runningStride's V_backup proximity margin: four coarse quanta.
    double quietMarginE_;
    /// Largest energy still inside the brown-out lockout: a wake boots
    /// only from a rail above V_off + kBootLockoutV, i.e. above this.
    double energyLockout_;
    double epc_;  // energy per cycle
    double spc_;  // seconds per cycle
    /// Resolved burst limit (config/GECKO_COALESCE); < 2 disables the
    /// fast path.
    int coalesceLimit_ = 0;
};

/**
 * Convenience: execute `compiled` start-to-halt on a fresh machine with
 * no power failures.
 * @return total cycles (the scheme's failure-free execution time).
 */
std::uint64_t runToCompletion(const compiler::CompiledProgram& compiled,
                              Nvm& nvm, IoHub& io);

}  // namespace gecko::sim

#endif  // GECKO_SIM_INTERMITTENT_SIM_HPP_
