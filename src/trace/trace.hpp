#ifndef GECKO_TRACE_TRACE_HPP_
#define GECKO_TRACE_TRACE_HPP_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/**
 * @file
 * Structured event tracing for the checkpoint protocol.
 *
 * The attack and defense are protocol-level phenomena — monitor trips,
 * JIT saves, rollbacks — so this layer records them as typed events
 * with stable IDs rather than aggregate counters.  Design constraints:
 *
 *  - Zero cost when compiled out: `-DGECKO_TRACE=0` makes the
 *    GECKO_TRACE_EVENT macro expand to `((void)0)` (arguments are not
 *    evaluated), so the interpreter fast path is untouched.
 *  - Near-zero cost when compiled in but idle: the macro is a single
 *    thread-local null-pointer check.
 *  - Deterministic output: each sweep/campaign case records into its
 *    own Buffer; the Collector merges buffers keyed by (label, index)
 *    — never by OS-thread identity — and events by
 *    (sim-time, buffer, seq), so the merged trace is byte-identical
 *    across GECKO_THREADS settings and across execution tiers.
 *
 * Instrumentation lives in .cpp files only; no public simulator header
 * includes this one.
 */

#ifndef GECKO_TRACE
#define GECKO_TRACE 1
#endif

namespace gecko::campaign {
class Archive;
}

namespace gecko::trace {

/**
 * Event kinds with stable wire IDs (append-only; never renumber —
 * golden traces and external tooling key on these values).
 */
enum class EventKind : std::uint16_t {
    // Machine / compute (1..15)
    kRegionCommit = 1,  ///< a=regionId, b=commitCount after commit
    kCompletion = 2,    ///< a=completions, b=sum of committed outCount
    kMachineFault = 3,  ///< a=pc at fault
    // 4..7 are retired (block-tier compile/enter/exit/deopt, removed):
    // never reuse them.  Both execution tiers emit the same events, so
    // golden traces are backend-independent.

    // Power / simulator (16..31)
    kBoot = 16,          ///< a=reboots, b=bootCycles total
    kSleepEnter = 17,    ///< flags: reason (kFlagJitArmed if armed)
    kPowerLoss = 18,     ///< hard death; flags kFlagJitArmed if missed ckpt
    kBackupSignal = 19,  ///< flags kFlagIgnored/kFlagLockout as applicable
    kWakeSignal = 20,
    kMonitorTrip = 21,  ///< a=rail mV, b=seen mV; flags backup/wake/attack

    // JIT save lifecycle (32..47)
    kJitSaveStart = 32,  ///< a=attempt number (0-based)
    kJitSaveCommit = 33, ///< a=epoch committed, b=words written
    kJitSaveAbort = 34,  ///< wake veto inside the abort window
    kJitSaveTorn = 35,   ///< power died mid-image; ACK not toggled
    kJitSaveRetry = 36,  ///< a=attempt that failed (write fault)
    kJitRetriesExhausted = 37,

    // Recovery / runtime (48..63)
    kJitRestore = 48,  ///< a=image epoch; flags kFlagGuarded/kFlagStale
    kRollback = 49,    ///< a=committed region, b=commitCount
    kCrcReject = 50,   ///< a=image epoch seen
    kSlotRepair = 51,  ///< a=slot index (shadow copy healed it)
    kSlotUnrecoverable = 52,  ///< a=slot index
    kRecoveryBlock = 53,      ///< a=region, b=instructions executed
    kAttackDetected = 54,     ///< flags kFlagAckDetect/kFlagTimerDetect
    kJitDisabled = 55,        ///< degradation to rollback-only
    kJitReenabled = 56,       ///< §VI-F probe succeeded

    // Energy (64..79)
    kThresholdCross = 64,  ///< a=threshold idx (0=vOff,1=vBackup,2=vOn),
                           ///< b=mV; flags kFlagUp/kFlagDown
    kOutageStart = 65,     ///< harvester open-circuit collapsed
    kOutageEnd = 66,

    // Attack (80..95)
    kEmiOn = 80,  ///< a=freqHz, b=power in milli-dBm (signed, offset)
    kEmiOff = 81,
    kSpatialHit = 82,  ///< a=grid cell (row*cols+col), b=coupling milli-units

    // Fault injection (96..111)
    kFaultInject = 96,  ///< a=FaultSite, b=site-specific payload
    kInstrFault = 97,   ///< a=FaultSite (instr family), b=payload (pc/reg)

    // Adaptive defense controller (112..)
    kDefenseAnomaly = 112,     ///< a=score milli-units, b=evidence bits
    kDefenseModeChange = 113,  ///< a=new defense::Mode, b=previous Mode
    kDefenseRatchetTrip = 114, ///< a=regionId, b=consecutive rollbacks
};

/** Payload `a` values for EventKind::kFaultInject. */
enum FaultSite : std::uint64_t {
    kSiteJitWord = 0,
    kSiteSlotWord = 1,
    kSiteAckWord = 2,
    kSiteStaleImage = 3,
    kSiteStaleSlot = 4,
    kSiteTornWrite = 5,
    kSiteJitWriteFault = 6,
    kSiteMonitorFault = 7,
    // Instruction-stream faults (EventKind::kInstrFault payloads).
    kSiteInstrSkip = 8,
    kSiteOpcodeCorrupt = 9,
    kSiteOperandFlip = 10,
};

// Event flag bits (shared namespace; kinds use disjoint subsets).
inline constexpr std::uint16_t kFlagBackup = 0x1;
inline constexpr std::uint16_t kFlagWake = 0x2;
inline constexpr std::uint16_t kFlagAttack = 0x4;
inline constexpr std::uint16_t kFlagMonitorFault = 0x8;
inline constexpr std::uint16_t kFlagIgnored = 0x10;
inline constexpr std::uint16_t kFlagLockout = 0x20;
inline constexpr std::uint16_t kFlagUp = 0x40;
inline constexpr std::uint16_t kFlagDown = 0x80;
inline constexpr std::uint16_t kFlagGuarded = 0x100;
inline constexpr std::uint16_t kFlagStale = 0x200;
inline constexpr std::uint16_t kFlagAckDetect = 0x400;
inline constexpr std::uint16_t kFlagTimerDetect = 0x800;
inline constexpr std::uint16_t kFlagJitArmed = 0x1000;

/** One trace record (POD, 32 bytes). */
struct Event {
    double t = 0.0;         ///< sim-time seconds (buffer clock)
    std::uint32_t seq = 0;  ///< per-buffer emission order
    std::uint16_t kind = 0;
    std::uint16_t flags = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    bool operator==(const Event&) const = default;
};

/** Stable lowercase name for an event kind ("region_commit", ...). */
const char* eventName(EventKind kind);

/** True iff the library was built with tracing compiled in. */
bool compiledIn();

/**
 * Fixed-capacity event ring for one traced case.  Oldest events are
 * overwritten once full (`dropped()` counts them).  The buffer carries
 * its own sim-time clock, advanced via setTime() at simulator loop
 * heads so emit sites don't need a time argument.
 */
class Buffer
{
  public:
    explicit Buffer(std::size_t capacity = kDefaultCapacity);

    void setLabel(std::string label) { label_ = std::move(label); }
    void setIndex(std::uint64_t index) { index_ = index; }
    const std::string& label() const { return label_; }
    std::uint64_t index() const { return index_; }

    void setTime(double t) { now_ = t; }
    double time() const { return now_; }

    void emit(EventKind kind, std::uint16_t flags = 0, std::uint64_t a = 0,
              std::uint64_t b = 0);

    std::uint64_t dropped() const { return dropped_; }
    std::size_t size() const { return size_; }

    /** Events in emission order (unrolls the ring). */
    std::vector<Event> events() const;

    /**
     * Serialize/restore the ring's logical state: clock, sequence and
     * drop cursors, plus the live events in emission order.  The
     * physical head position is normalized on restore (the unrolled
     * stream — the only observable — is preserved exactly); capacity
     * and label/index identity are construction-time and only
     * validated.
     */
    void archiveState(campaign::Archive& ar);

    static constexpr std::size_t kDefaultCapacity = 1u << 16;

  private:
    std::vector<Event> ring_;
    std::size_t head_ = 0;  ///< next write slot
    std::size_t size_ = 0;
    std::uint32_t seq_ = 0;
    std::uint64_t dropped_ = 0;
    double now_ = 0.0;
    std::string label_;
    std::uint64_t index_ = 0;
};

namespace detail {
/// The thread's active buffer.  `inline thread_local` so current() is a
/// raw TLS load at every macro site — an out-of-line call here costs
/// 20%+ on monitor-sample-heavy sims even with tracing idle.
inline thread_local Buffer* tCurrentBuffer = nullptr;
}  // namespace detail

/** The thread's active buffer (nullptr = tracing idle). */
inline Buffer*
current()
{
    return detail::tCurrentBuffer;
}

/** Install `buffer` as the thread's active buffer (nullptr to clear). */
inline void
setCurrent(Buffer* buffer)
{
    detail::tCurrentBuffer = buffer;
}

/** RAII: install a buffer for a scope, restoring the previous one. */
class BufferScope
{
  public:
    explicit BufferScope(Buffer* buffer) : prev_(current())
    {
        setCurrent(buffer);
    }
    ~BufferScope() { setCurrent(prev_); }
    BufferScope(const BufferScope&) = delete;
    BufferScope& operator=(const BufferScope&) = delete;

  private:
    Buffer* prev_;
};

/** One merged-and-labelled event, as produced by Collector::merged(). */
struct MergedEvent {
    std::uint32_t buf = 0;  ///< ordinal of the (label,index)-sorted buffer
    Event event;
};

/**
 * Thread-safe sink for finished per-case buffers.  Merging is
 * deterministic: buffers sort by (label, index) — registration order,
 * which depends on thread scheduling, is irrelevant — then events sort
 * by (t, buf, seq).
 */
class Collector
{
  public:
    /** Open a fresh buffer owned by the collector. */
    Buffer* open(std::string label, std::uint64_t index);

    /** Buffer descriptors in merge order: (label, index, events, dropped). */
    struct BufferInfo {
        std::string label;
        std::uint64_t index = 0;
        std::uint64_t events = 0;
        std::uint64_t dropped = 0;
    };
    std::vector<BufferInfo> bufferInfos() const;

    std::vector<MergedEvent> merged() const;

    std::uint64_t totalEvents() const;
    std::uint64_t totalDropped() const;

  private:
    /** Buffers sorted by (label, index); returns indices into buffers_. */
    std::vector<std::size_t> mergeOrder() const;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/**
 * RAII: open a per-case buffer on `collector` and make it current for
 * the scope, restoring the previously current buffer on exit.  A null
 * collector installs nullptr (tracing suppressed) rather than
 * inheriting the outer buffer: parallel case bodies run inline on the
 * caller's thread when GECKO_THREADS=1 but on pool threads otherwise,
 * and inheriting would make the outer buffer's bytes depend on the
 * thread count.
 */
class CaseScope
{
  public:
    CaseScope(Collector* collector, const std::string& label,
              std::uint64_t index)
        : prev_(current())
    {
        setCurrent(collector != nullptr ? collector->open(label, index)
                                        : nullptr);
    }
    ~CaseScope() { setCurrent(prev_); }
    CaseScope(const CaseScope&) = delete;
    CaseScope& operator=(const CaseScope&) = delete;

  private:
    Buffer* prev_;
};

}  // namespace gecko::trace

// The only instrumentation entry points.  With GECKO_TRACE=0 both
// expand to ((void)0) and their arguments are never evaluated.
#if GECKO_TRACE
#define GECKO_TRACE_EVENT(kind, flags, a, b)                               \
    do {                                                                   \
        if (::gecko::trace::Buffer* gtb_ = ::gecko::trace::current())      \
            gtb_->emit((kind), (flags), (a), (b));                         \
    } while (0)
#define GECKO_TRACE_TIME(t)                                                \
    do {                                                                   \
        if (::gecko::trace::Buffer* gtb_ = ::gecko::trace::current())      \
            gtb_->setTime(t);                                              \
    } while (0)
#else
#define GECKO_TRACE_EVENT(kind, flags, a, b) ((void)0)
#define GECKO_TRACE_TIME(t) ((void)0)
#endif

#endif  // GECKO_TRACE_TRACE_HPP_
