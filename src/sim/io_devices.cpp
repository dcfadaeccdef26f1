#include "sim/io_devices.hpp"

#include <string>

#include "campaign/archive.hpp"

namespace gecko::sim {

IoHub::IoHub()
{
    for (auto& in : inputs_)
        in = std::make_shared<VectorInput>(std::vector<std::uint32_t>{0});
}

void
IoHub::setInput(int port, std::shared_ptr<InputDevice> dev)
{
    inputs_.at(static_cast<std::size_t>(port)) = std::move(dev);
}

InputDevice&
IoHub::input(int port)
{
    return *inputs_.at(static_cast<std::size_t>(port));
}

void
OutputSink::setPastEnd(std::uint64_t index, std::uint32_t value)
{
    if (index > dense_.size()) {
        auto [it, inserted] = side_.emplace(index, value);
        if (!inserted)
            rewrite(it->second, value);
        return;
    }
    // The write fills the gap: append it and every side entry it joins.
    dense_.push_back(value);
    auto it = side_.begin();
    while (it != side_.end() && it->first == dense_.size()) {
        dense_.push_back(it->second);
        it = side_.erase(it);
    }
}

void
OutputSink::archiveState(campaign::Archive& ar)
{
    ar.section("output_sink");
    std::uint64_t n = count();
    ar.u64(n);
    if (ar.saving()) {
        for (std::uint64_t i = 0; i < dense_.size(); ++i) {
            std::uint32_t v = dense_[i];
            ar.u64(i);
            ar.u32(v);
        }
        for (const auto& [index, value] : side_) {
            std::uint64_t k = index;
            std::uint32_t v = value;
            ar.u64(k);
            ar.u32(v);
        }
    } else {
        dense_.clear();
        side_.clear();
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t k = 0;
            std::uint32_t v = 0;
            ar.u64(k);
            ar.u32(v);
            if (i > 0 && k <= prev)
                throw campaign::SnapshotError(
                    "archive: output sink index " + std::to_string(k) +
                    " does not follow index " + std::to_string(prev));
            prev = k;
            // Keys ascend, so once one lands past a gap every later
            // one does too, and no side entry ever joins the vector.
            if (k == dense_.size() && side_.empty())
                dense_.push_back(v);
            else
                side_.emplace_hint(side_.end(), k, v);
        }
    }
    ar.u64(conflicts_);
}

void
IoHub::archiveState(campaign::Archive& ar)
{
    ar.section("io_hub");
    for (auto& out : outputs_)
        out.archiveState(ar);
}

}  // namespace gecko::sim
