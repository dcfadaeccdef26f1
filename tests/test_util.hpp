#ifndef GECKO_TESTS_TEST_UTIL_HPP_
#define GECKO_TESTS_TEST_UTIL_HPP_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/io_devices.hpp"
#include "sim/nvm.hpp"
#include "workloads/workloads.hpp"

namespace gecko::test {

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

}  // namespace gecko::test

#endif  // GECKO_TESTS_TEST_UTIL_HPP_
