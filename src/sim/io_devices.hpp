#ifndef GECKO_SIM_IO_DEVICES_HPP_
#define GECKO_SIM_IO_DEVICES_HPP_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/nvm.hpp"

/**
 * @file
 * Peripheral models with replay-consistent semantics.
 *
 * Rollback recovery re-executes code, so peripherals are indexed by a
 * persistent sequence number: the n-th kIn on a port always returns the
 * same value, and the n-th kOut on a port is an idempotent keyed write.
 * Re-execution therefore reproduces inputs exactly and outputs are
 * observed exactly once — while a corrupted roll-forward (NVP under
 * attack) shows up as conflicting writes to the same output index.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::sim {

/** A deterministic input stream (sensor). */
class InputDevice
{
  public:
    virtual ~InputDevice() = default;

    /** Value of the `index`-th read on this port. */
    virtual std::uint32_t valueAt(std::uint64_t index) = 0;
};

/** Input backed by a repeating sample vector. */
class VectorInput : public InputDevice
{
  public:
    explicit VectorInput(std::vector<std::uint32_t> samples)
        : samples_(std::move(samples))
    {
        if (samples_.empty())
            samples_.push_back(0);
    }

    std::uint32_t valueAt(std::uint64_t index) override
    {
        return samples_[index % samples_.size()];
    }

  private:
    std::vector<std::uint32_t> samples_;
};

/** Input backed by a pure function of the index. */
class FunctionInput : public InputDevice
{
  public:
    explicit FunctionInput(std::function<std::uint32_t(std::uint64_t)> fn)
        : fn_(std::move(fn)) {}

    std::uint32_t valueAt(std::uint64_t index) override
    {
        return fn_(index);
    }

  private:
    std::function<std::uint32_t(std::uint64_t)> fn_;
};

/**
 * Keyed, idempotent output sink.
 *
 * Outputs arrive in index order, so the set indices [0, n) live in a
 * dense vector and only an index written past a gap goes to an ordered
 * side map.  Every side key stays > n: the entry at n moves into the
 * vector as soon as the write that fills the gap appends.  An append or
 * a rewrite below n costs O(1) and allocates only when the vector grows;
 * no index value ever sizes an allocation.
 */
class OutputSink
{
  public:
    /** Record the value written at output `index`. */
    void set(std::uint64_t index, std::uint32_t value)
    {
        if (index < dense_.size())
            rewrite(dense_[index], value);
        else if (index == dense_.size() && side_.empty())
            dense_.push_back(value);
        else
            setPastEnd(index, value);
    }

    /** Values in index order (unset indices are skipped). */
    std::vector<std::uint32_t> values() const
    {
        std::vector<std::uint32_t> out;
        out.reserve(count());
        out.insert(out.end(), dense_.begin(), dense_.end());
        for (const auto& [idx, v] : side_)
            out.push_back(v);
        return out;
    }

    std::size_t count() const { return dense_.size() + side_.size(); }

    /**
     * Writes that re-targeted an index with a *different* value — never
     * happens under correct recovery; a nonzero count is evidence of
     * data corruption.
     */
    std::uint64_t conflicts() const { return conflicts_; }

    void clear()
    {
        dense_.clear();
        side_.clear();
        conflicts_ = 0;
    }

    /**
     * Serialize/restore the keyed values and the conflict counter: the
     * count, then ascending (u64 index, u32 value) pairs, then the
     * conflict count.  A restore refuses a key not above its
     * predecessor.
     */
    void archiveState(campaign::Archive& ar);

  private:
    /** A write to a set index: a different value is one conflict. */
    void rewrite(std::uint32_t& slot, std::uint32_t value)
    {
        if (slot != value) {
            ++conflicts_;
            slot = value;
        }
    }

    /** `set` at an index >= the dense size that is not a plain append. */
    void setPastEnd(std::uint64_t index, std::uint32_t value);

    std::vector<std::uint32_t> dense_;              // indices [0, n)
    std::map<std::uint64_t, std::uint32_t> side_;   // keys > n
    std::uint64_t conflicts_ = 0;
};

/** The machine's set of peripherals. */
class IoHub
{
  public:
    IoHub();

    /** Install an input device on `port`. */
    void setInput(int port, std::shared_ptr<InputDevice> dev);

    InputDevice& input(int port);
    OutputSink& output(int port)
    {
        return outputs_.at(static_cast<std::size_t>(port));
    }
    const OutputSink& output(int port) const
    {
        return outputs_.at(static_cast<std::size_t>(port));
    }

    /**
     * Serialize/restore every output sink.  Inputs are pure functions
     * of the replay index and are reconstructed by workload setup, not
     * archived.
     */
    void archiveState(campaign::Archive& ar);

  private:
    std::array<std::shared_ptr<InputDevice>, kIoPorts> inputs_;
    std::array<OutputSink, kIoPorts> outputs_;
};

}  // namespace gecko::sim

#endif  // GECKO_SIM_IO_DEVICES_HPP_
