#include "sim/jit_checkpoint.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace gecko::sim {

namespace {

/** CRC over the context+epoch words plus the ACK value. */
std::uint32_t
imageCrc(const std::uint32_t* words, std::uint32_t ack)
{
    std::uint32_t crc = crc32Words(words, Nvm::kJitCrcIndex);
    return crc32Words(&ack, 1, crc);
}

}  // namespace

JitWriter::JitWriter(const Machine& machine, Nvm& nvm, int ramPaddingWords)
    : nvm_(nvm), padding_(std::max(0, ramPaddingWords))
{
    // One start per attempt: the intermittent simulator opens one
    // writer per retry, so retries show as start/retry pairs in the
    // trace.
    GECKO_TRACE_EVENT(trace::EventKind::kJitSaveStart, 0,
                      nvm.jitEpoch + 1,
                      static_cast<std::uint64_t>(ramPaddingWords));

    // Image in write order: regs, pc, staged-I/O, epoch, CRC, ACK last.
    std::size_t w = 0;
    for (int r = 0; r < 16; ++r)
        image_[w++] = machine.regs()[static_cast<std::size_t>(r)];
    image_[w++] = machine.pc();
    for (int p = 0; p < kIoPorts; ++p)
        image_[w++] = machine.pendingIn()[static_cast<std::size_t>(p)];
    for (int p = 0; p < kIoPorts; ++p)
        image_[w++] = machine.pendingOut()[static_cast<std::size_t>(p)];
    image_[Nvm::kJitEpochIndex] = nvm.jitEpoch + 1;
    image_[Nvm::kJitAckIndex] = nvm.jit[Nvm::kJitAckIndex] ^ 1u;
    // The CRC word is filled in by write() when it is reached: most
    // attempts that tear or are vetoed never get that far.
}

void
JitWriter::write(int count)
{
    const int end = written_ + std::clamp(count, 0, words() - written_);
    // Padding words are cost only: counted, never stored.
    nvm_.jitAreaWrites += static_cast<std::uint64_t>(end - written_);
    for (int w = std::max(written_, padding_); w < end; ++w) {
        const auto i = static_cast<std::size_t>(w - padding_);
        if (i == Nvm::kJitCrcIndex)
            image_[i] = imageCrc(image_.data(), image_[Nvm::kJitAckIndex]);
        nvm_.jit[i] = image_[i];
    }
    written_ = end;
}

JitResult
JitWriter::finish()
{
    JitResult result;
    result.wordsWritten = written_;
    if (written_ < words())
        return result;  // torn: ACK not toggled
    nvm_.jitEpoch = image_[Nvm::kJitEpochIndex];
    ++nvm_.jitAreaWrites;
    result.complete = true;
    GECKO_TRACE_EVENT(trace::EventKind::kJitSaveCommit, 0, nvm_.jitEpoch,
                      static_cast<std::uint64_t>(result.wordsWritten));
    return result;
}

JitResult
JitCheckpoint::checkpoint(const Machine& machine, Nvm& nvm, int wordBudget,
                          int ramPaddingWords)
{
    JitWriter writer(machine, nvm, ramPaddingWords);
    writer.write(std::max(0, wordBudget));
    return writer.finish();
}

std::uint64_t
JitCheckpoint::restore(Machine& machine, const Nvm& nvm,
                       int ramPaddingWords)
{
    std::size_t w = 0;
    for (int r = 0; r < 16; ++r)
        machine.regs()[static_cast<std::size_t>(r)] = nvm.jit[w++];
    machine.setPc(nvm.jit[w++]);
    for (int p = 0; p < kIoPorts; ++p)
        machine.pendingIn()[static_cast<std::size_t>(p)] = nvm.jit[w++];
    for (int p = 0; p < kIoPorts; ++p)
        machine.pendingOut()[static_cast<std::size_t>(p)] = nvm.jit[w++];
    machine.clearHalt();
    machine.clearFault();
    return (static_cast<std::uint64_t>(Nvm::kJitWords) +
            static_cast<std::uint64_t>(ramPaddingWords)) *
               2 +
           kJitRestoreOverheadCycles;
}

bool
JitCheckpoint::imageValid(const Nvm& nvm)
{
    if (nvm.jit[Nvm::kJitEpochIndex] != nvm.jitEpoch)
        return false;
    return imageCrc(nvm.jit.data(), nvm.jit[Nvm::kJitAckIndex]) ==
           nvm.jit[Nvm::kJitCrcIndex];
}

void
JitCheckpoint::consumeImage(Nvm& nvm)
{
    nvm.jitEpoch = nvm.jit[Nvm::kJitEpochIndex] + 1;
    ++nvm.jitAreaWrites;
}

}  // namespace gecko::sim
