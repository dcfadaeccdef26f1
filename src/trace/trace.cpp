#include "trace/trace.hpp"

#include <algorithm>

#include "campaign/archive.hpp"

namespace gecko::trace {

const char*
eventName(EventKind kind)
{
    switch (kind) {
        case EventKind::kRegionCommit: return "region_commit";
        case EventKind::kCompletion: return "completion";
        case EventKind::kMachineFault: return "machine_fault";
        case EventKind::kBoot: return "boot";
        case EventKind::kSleepEnter: return "sleep_enter";
        case EventKind::kPowerLoss: return "power_loss";
        case EventKind::kBackupSignal: return "backup_signal";
        case EventKind::kWakeSignal: return "wake_signal";
        case EventKind::kMonitorTrip: return "monitor_trip";
        case EventKind::kJitSaveStart: return "jit_save_start";
        case EventKind::kJitSaveCommit: return "jit_save_commit";
        case EventKind::kJitSaveAbort: return "jit_save_abort";
        case EventKind::kJitSaveTorn: return "jit_save_torn";
        case EventKind::kJitSaveRetry: return "jit_save_retry";
        case EventKind::kJitRetriesExhausted: return "jit_retries_exhausted";
        case EventKind::kJitRestore: return "jit_restore";
        case EventKind::kRollback: return "rollback";
        case EventKind::kCrcReject: return "crc_reject";
        case EventKind::kSlotRepair: return "slot_repair";
        case EventKind::kSlotUnrecoverable: return "slot_unrecoverable";
        case EventKind::kRecoveryBlock: return "recovery_block";
        case EventKind::kAttackDetected: return "attack_detected";
        case EventKind::kJitDisabled: return "jit_disabled";
        case EventKind::kJitReenabled: return "jit_reenabled";
        case EventKind::kThresholdCross: return "threshold_cross";
        case EventKind::kOutageStart: return "outage_start";
        case EventKind::kOutageEnd: return "outage_end";
        case EventKind::kEmiOn: return "emi_on";
        case EventKind::kEmiOff: return "emi_off";
        case EventKind::kSpatialHit: return "spatial_hit";
        case EventKind::kFaultInject: return "fault_inject";
        case EventKind::kInstrFault: return "instr_fault";
        case EventKind::kDefenseAnomaly: return "defense_anomaly";
        case EventKind::kDefenseModeChange: return "defense_mode_change";
        case EventKind::kDefenseRatchetTrip: return "defense_ratchet_trip";
    }
    return "unknown";
}

bool
compiledIn()
{
    return GECKO_TRACE != 0;
}

Buffer::Buffer(std::size_t capacity) : ring_(capacity) {}

void
Buffer::emit(EventKind kind, std::uint16_t flags, std::uint64_t a,
             std::uint64_t b)
{
    Event& e = ring_[head_];
    e.t = now_;
    e.seq = seq_++;
    e.kind = static_cast<std::uint16_t>(kind);
    e.flags = flags;
    e.a = a;
    e.b = b;
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size())
        ++size_;
    else
        ++dropped_;
}

std::vector<Event>
Buffer::events() const
{
    std::vector<Event> out;
    out.reserve(size_);
    const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

Buffer*
Collector::open(std::string label, std::uint64_t index)
{
    auto buffer = std::make_unique<Buffer>();
    buffer->setLabel(std::move(label));
    buffer->setIndex(index);
    Buffer* raw = buffer.get();
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
    return raw;
}

std::vector<std::size_t>
Collector::mergeOrder() const
{
    std::vector<std::size_t> order(buffers_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::size_t lhs, std::size_t rhs) {
                  const Buffer& a = *buffers_[lhs];
                  const Buffer& b = *buffers_[rhs];
                  if (a.label() != b.label())
                      return a.label() < b.label();
                  return a.index() < b.index();
              });
    return order;
}

std::vector<Collector::BufferInfo>
Collector::bufferInfos() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BufferInfo> infos;
    infos.reserve(buffers_.size());
    for (std::size_t i : mergeOrder()) {
        const Buffer& b = *buffers_[i];
        infos.push_back({b.label(), b.index(),
                         static_cast<std::uint64_t>(b.size()), b.dropped()});
    }
    return infos;
}

std::vector<MergedEvent>
Collector::merged() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MergedEvent> out;
    const std::vector<std::size_t> order = mergeOrder();
    for (std::uint32_t ordinal = 0; ordinal < order.size(); ++ordinal) {
        for (const Event& e : buffers_[order[ordinal]]->events())
            out.push_back({ordinal, e});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const MergedEvent& a, const MergedEvent& b) {
                         if (a.event.t != b.event.t)
                             return a.event.t < b.event.t;
                         if (a.buf != b.buf)
                             return a.buf < b.buf;
                         return a.event.seq < b.event.seq;
                     });
    return out;
}

std::uint64_t
Collector::totalEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto& b : buffers_)
        n += b->size();
    return n;
}

std::uint64_t
Collector::totalDropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto& b : buffers_)
        n += b->dropped();
    return n;
}

void
Buffer::archiveState(campaign::Archive& ar)
{
    ar.section("trace_buffer");
    ar.check(ring_.size(), "trace ring capacity");
    ar.u32(seq_);
    ar.u64(dropped_);
    ar.f64(now_);
    std::vector<Event> live = ar.saving() ? events() : std::vector<Event>();
    std::uint64_t n = live.size();
    ar.u64(n);
    if (!ar.saving()) {
        if (n > ring_.size())
            throw campaign::SnapshotError(
                "trace: live events exceed ring capacity");
        live.resize(static_cast<std::size_t>(n));
    }
    for (Event& ev : live) {
        ar.f64(ev.t);
        ar.u32(ev.seq);
        ar.u16(ev.kind);
        ar.u16(ev.flags);
        ar.u64(ev.a);
        ar.u64(ev.b);
    }
    if (!ar.saving()) {
        // Lay the unrolled stream back from slot 0: the physical head
        // position is not observable through events(), so normalizing
        // it keeps future emissions logically identical.
        std::fill(ring_.begin(), ring_.end(), Event{});
        std::copy(live.begin(), live.end(), ring_.begin());
        size_ = live.size();
        head_ = ring_.empty() ? 0 : live.size() % ring_.size();
    }
}

}  // namespace gecko::trace
