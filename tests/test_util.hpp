#ifndef GECKO_TESTS_TEST_UTIL_HPP_
#define GECKO_TESTS_TEST_UTIL_HPP_

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "compiler/pipeline.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/io_devices.hpp"
#include "sim/nvm.hpp"
#include "workloads/workloads.hpp"

namespace gecko::test {

/** A fresh scratch directory `gecko_<tag>_<pid>` under the system's
 *  temporary directory, removed with everything in it on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string& tag)
        : path_(std::filesystem::temp_directory_path() /
                ("gecko_" + tag + "_" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

/** Result of a failure-free ("golden") run. */
struct GoldenRun {
    std::uint64_t cycles = 0;
    std::vector<std::uint32_t> out0;
    std::vector<std::uint32_t> out2;
    std::vector<std::uint32_t> finalMemory;
};

/** Compile `name` for `scheme` with default pipeline config. */
inline compiler::CompiledProgram
compileWorkload(const std::string& name, compiler::Scheme scheme,
                const compiler::PipelineConfig& config = {})
{
    return compiler::compile(workloads::build(name), scheme, config);
}

/** Execute to completion with no power failures. */
inline GoldenRun
golden(const compiler::CompiledProgram& compiled, const std::string& name,
       std::size_t memWords = 16384)
{
    sim::Nvm nvm(memWords);
    sim::IoHub io;
    workloads::setupIo(name, io);
    GoldenRun run;
    run.cycles = sim::runToCompletion(compiled, nvm, io);
    run.out0 = io.output(0).values();
    run.out2 = io.output(2).values();
    run.finalMemory = nvm.data();
    return run;
}

/**
 * "name: a vs b" for the first archived counter that differs, "" when
 * none does: the differential oracles' counter check, walked through
 * the field lists (the unarchived burst diagnostics depend on how the
 * simulator stepped, so they are left out).
 */
inline std::string
firstArchivedDifference(const sim::Counters& a, const sim::Counters& b)
{
    std::ostringstream first;
    first.precision(17);
    sim::Counters::forEachField(
        [&](const metrics::CounterField& f, auto get) {
            if (first.tellp() == 0 && f.archived && get(a) != get(b))
                first << f.name << ": " << get(a) << " vs " << get(b);
        });
    return first.str();
}

/** Iterations i = 1, 2, … (at most `cap`) whose latch `op` on the
 *  counter `c + i·step` (its left operand if `counterLhs`) against
 *  `bound` is taken, counted one by one: the reference for the steady
 *  loop fast-forward's closed-form count (sim::steadyLatchRun). */
inline std::uint64_t
latchTakenOneByOne(ir::Opcode op, bool counterLhs, std::uint32_t c,
                   std::uint32_t step, std::uint32_t bound, std::uint64_t cap)
{
    std::uint64_t n = 0;
    for (; n < cap; ++n) {
        c += step;
        if (!(counterLhs ? ir::evalBranch(op, c, bound)
                         : ir::evalBranch(op, bound, c)))
            break;
    }
    return n;
}

}  // namespace gecko::test

#endif  // GECKO_TESTS_TEST_UTIL_HPP_
