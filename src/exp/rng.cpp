#include "exp/rng.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

namespace gecko::exp {

namespace {

std::uint64_t g_staged_seed = 0;
bool g_staged = false;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

std::uint64_t
parseSeed(const char* value)
{
    if (value == nullptr || *value == '\0')
        return 0;
    std::uint64_t seed = 0;
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, seed);
    if (ec != std::errc() || ptr != end)
        throw std::invalid_argument(
            std::string("GECKO_SEED=") + value +
            ": expected a decimal seed in 0..18446744073709551615");
    return seed;
}

std::uint64_t
globalSeed()
{
    static std::once_flag once;
    static std::uint64_t seed = 0;
    std::call_once(once, [] {
        seed = g_staged ? g_staged_seed
                        : parseSeed(std::getenv("GECKO_SEED"));
    });
    return seed;
}

void
setGlobalSeed(std::uint64_t seed)
{
    g_staged_seed = seed;
    g_staged = true;
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t m = splitmix64(splitmix64(a) ^ (b + 0x9e3779b97f4a7c15ull));
    return m ? m : 1;
}

std::uint64_t
applyGlobalSeed(std::uint64_t componentSeed)
{
    std::uint64_t g = globalSeed();
    return g == 0 ? componentSeed : mixSeed(componentSeed, g);
}

}  // namespace gecko::exp
