#ifndef GECKO_EXP_RNG_HPP_
#define GECKO_EXP_RNG_HPP_

#include <cstdint>

/**
 * @file
 * Centralised, deterministic random-number seeding.
 *
 * Every stochastic component of the system — harvester trace noise,
 * the monitor's DCO sampling jitter, the fuzz generator, the fault
 * campaign — derives its seed from one process-wide value so that any
 * run replays bit-identically.  The value comes from the `GECKO_SEED`
 * environment variable, or from a `--seed=N` CLI flag staged via
 * setGlobalSeed() before first use.
 *
 * A global seed of 0 (the default when `GECKO_SEED` is unset) means
 * "unseeded baseline": components keep their historical fixed seeds so
 * outputs stay byte-identical with earlier revisions.  Any nonzero
 * global seed is mixed into every component seed via mixSeed().
 */

namespace gecko::exp {

/**
 * The process-wide seed: `GECKO_SEED` (parsed once, cached), or the
 * value staged with setGlobalSeed().  0 = unseeded baseline.
 * @throws std::invalid_argument when `GECKO_SEED` is malformed.
 */
std::uint64_t globalSeed();

/**
 * Read a `GECKO_SEED` value whole, as the decimal digits `--seed=`
 * takes: null or empty (unset) means 0.
 * @throws std::invalid_argument naming the variable otherwise.
 */
std::uint64_t parseSeed(const char* value);

/**
 * Stage the global seed (CLI `--seed=N` override).  Must be called
 * before the first globalSeed() use to take effect.
 */
void setGlobalSeed(std::uint64_t seed);

/**
 * Combine two seed values into one with full avalanche (splitmix64
 * finalizer over the pair).  Never returns 0.
 */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/**
 * Derive a component's effective seed from its historical default:
 * returns `componentSeed` unchanged under the unseeded baseline, else
 * mixSeed(componentSeed, globalSeed()).
 */
std::uint64_t applyGlobalSeed(std::uint64_t componentSeed);

/** xorshift64* PRNG — deterministic across platforms and fast. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull) {}

    std::uint64_t next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, n); n == 0 yields 0. */
    std::uint32_t pick(std::uint32_t n)
    {
        return n ? static_cast<std::uint32_t>(next() % n) : 0;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        return static_cast<double>(next() >> 11) / 9007199254740992.0;
    }

  private:
    std::uint64_t state_;
};

}  // namespace gecko::exp

#endif  // GECKO_EXP_RNG_HPP_
