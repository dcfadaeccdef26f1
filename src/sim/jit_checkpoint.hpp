#ifndef GECKO_SIM_JIT_CHECKPOINT_HPP_
#define GECKO_SIM_JIT_CHECKPOINT_HPP_

#include <array>
#include <cstdint>
#include <limits>

#include "sim/machine.hpp"
#include "sim/nvm.hpp"

/**
 * @file
 * The JIT (just-in-time) checkpoint protocol — TI's CTPL in miniature
 * (paper §II-B/C).
 *
 * On a backup signal the protocol saves the volatile state (registers,
 * PC, staged-I/O counters) word by word into the NVM's JIT area, using
 * the energy still buffered in the capacitor, and finally toggles the
 * ACK word.  The word-by-word structure is the attack surface: if the
 * buffer runs dry mid-way the ACK is never toggled and the area holds a
 * torn image.
 *
 * Integrity hardening: the image additionally carries an epoch word
 * (consume-once freshness, see Nvm::jitEpoch) and a CRC word covering
 * the context words, the epoch, and the ACK value.  imageValid() is the
 * guarded-restore predicate GECKO's runtime checks before rolling
 * forward; NVP restores blindly, which is exactly the paper's
 * vulnerability.
 */

namespace gecko::sim {

/** Outcome of one checkpoint attempt. */
struct JitResult {
    /// All words written and the ACK toggled.
    bool complete = false;
    int wordsWritten = 0;
};

/** Cycles to write one word of the JIT area (FRAM store + bookkeeping). */
inline constexpr int kJitStoreCycles = 4;

/**
 * Words at the start of the checkpoint routine during which a wake
 * signal still vetoes it: CTPL re-checks the wake condition before
 * committing to the powerdown path.
 */
inline constexpr int kJitAbortWindowWords = 48;

/** Re-attempts of a transiently failing checkpoint save (injected write
 *  fault) before the routine gives up. */
inline constexpr int kJitSaveRetryLimit = 2;

/** Fixed cycles of the wake-up/restore path. */
inline constexpr int kJitRestoreOverheadCycles = 60;

/**
 * One checkpoint attempt, written in protocol order: the SRAM/
 * peripheral padding words first (cost only — our machine keeps data
 * in NVM — so most tears leave the previous image intact), then the
 * context image with the ACK word last.  The caller pays for words
 * and writes each paid run of them; an attempt closed before every
 * word landed leaves a torn image with the ACK untouched.
 */
class JitWriter
{
  public:
    /** Assemble the image of `machine`'s volatile state. */
    JitWriter(const Machine& machine, Nvm& nvm, int ramPaddingWords);

    /** Words of a complete attempt (padding + image). */
    int words() const
    {
        return padding_ + static_cast<int>(Nvm::kJitWords);
    }

    /** Write the next `count` words (at most what remains). */
    void write(int count);

    /**
     * Close the attempt.  Once every word landed, advance the
     * consume-once counter to match the committed image — one more
     * FRAM word write; a tear between the ACK and this write only
     * costs the roll-forward, never consistency.
     */
    JitResult finish();

  private:
    Nvm& nvm_;
    std::array<std::uint32_t, Nvm::kJitWords> image_{};
    int padding_;
    int written_ = 0;
};

/** The roll-forward checkpoint protocol. */
class JitCheckpoint
{
  public:
    /**
     * Checkpoint `machine`'s volatile state into `nvm` in one go.
     *
     * @param wordBudget words the energy buffer pays for before it
     *        dies; an attempt longer than that is abandoned, torn.
     * @param ramPaddingWords extra cost-only words modelling CTPL's
     *        SRAM/peripheral snapshot (see JitWriter).
     */
    static JitResult checkpoint(
        const Machine& machine, Nvm& nvm,
        int wordBudget = std::numeric_limits<int>::max(),
        int ramPaddingWords = 0);

    /**
     * Restore volatile state from the JIT area (used on wake-up
     * regardless of image integrity — exactly what makes a torn image a
     * data-corruption vector for NVP).
     * @return cycles consumed.
     */
    static std::uint64_t restore(Machine& machine, const Nvm& nvm,
                                 int ramPaddingWords = 0);

    /**
     * Guarded-restore predicate: the image's CRC matches its contents
     * (incl. the ACK word, so torn writes and ACK corruption fail) and
     * its epoch equals the NVM's consume-once counter (so stale-image
     * substitution fails).  A virgin all-zero area validates.
     */
    static bool imageValid(const Nvm& nvm);

    /**
     * Mark the current image consumed (call after a successful guarded
     * restore): advances the epoch counter past the image's epoch so the
     * same image cannot be rolled forward into twice.
     */
    static void consumeImage(Nvm& nvm);
};

}  // namespace gecko::sim

#endif  // GECKO_SIM_JIT_CHECKPOINT_HPP_
