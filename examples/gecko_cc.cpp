#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "compiler/pipeline.hpp"
#include "ir/assembler.hpp"
#include "ir/disassembler.hpp"
#include "metrics/table.hpp"
#include "sim/intermittent_sim.hpp"

/**
 * @file
 * gecko_cc: a tiny command-line compiler driver.
 *
 * Reads a mini-ISA assembly file, compiles it for a recovery scheme,
 * prints the instrumented program with region/checkpoint metadata, and
 * (optionally) executes it.
 *
 * Usage:
 *   gecko_cc <file.s> [nvp|ratchet|noprune|gecko] [--run] [--budget N]
 *
 * `--budget` takes the whole of N as a positive integer (the region
 * budget in cycles).
 *
 * Exit status: 0 on success, 1 on assembly/compile errors, 2 on a
 * missing, unknown or malformed argument (named on stderr).
 */

int
main(int argc, char** argv)
{
    using namespace gecko;

    if (argc < 2) {
        std::cerr << "usage: gecko_cc <file.s> "
                     "[nvp|ratchet|noprune|gecko] [--run] [--budget N]\n";
        return 2;
    }

    std::string path = argv[1];
    compiler::Scheme scheme = compiler::Scheme::kGecko;
    bool run = false;
    compiler::PipelineConfig config;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "nvp")
            scheme = compiler::Scheme::kNvp;
        else if (arg == "ratchet")
            scheme = compiler::Scheme::kRatchet;
        else if (arg == "noprune")
            scheme = compiler::Scheme::kGeckoNoPrune;
        else if (arg == "gecko")
            scheme = compiler::Scheme::kGecko;
        else if (arg == "--run")
            run = true;
        else if (arg == "--budget") {
            const std::string text = i + 1 < argc ? argv[++i] : "";
            const char* end = text.data() + text.size();
            const auto [ptr, ec] =
                std::from_chars(text.data(), end, config.maxRegionCycles);
            if (ec != std::errc() || ptr != end ||
                config.maxRegionCycles < 1) {
                std::cerr << "gecko_cc: --budget: expected a positive "
                             "integer, got \"" << text << "\"\n";
                return 2;
            }
        } else {
            std::cerr << "gecko_cc: unknown argument \"" << arg << "\"\n";
            return 2;
        }
    }

    std::ifstream in(path);
    if (!in) {
        std::cerr << "gecko_cc: cannot open " << path << "\n";
        return 1;
    }
    std::stringstream source;
    source << in.rdbuf();

    try {
        ir::Program prog = ir::Assembler::assemble(path, source.str());
        auto compiled = compiler::compile(prog, scheme, config);

        std::cout << "; " << path << " compiled for "
                  << compiler::schemeName(scheme) << "\n"
                  << ir::disassemble(compiled.prog);

        const auto& st = compiled.stats;
        std::cout << "\n; regions: " << st.numRegions
                  << ", checkpoint stores: " << st.ckptsAfterPruning
                  << " (pruned from " << st.ckptsBeforePruning << ")"
                  << ", recovery blocks: " << st.recoveryBlocks
                  << ", code size: +"
                  << metrics::fmtPercent(st.codeSizeOverhead(), 1) << "\n";

        if (run) {
            sim::Nvm nvm(16384);
            sim::IoHub io;
            std::uint64_t cycles =
                sim::runToCompletion(compiled, nvm, io);
            std::cout << "; executed in " << cycles << " cycles\n";
            for (int port = 0; port < sim::kIoPorts; ++port) {
                auto values = io.output(port).values();
                if (values.empty())
                    continue;
                std::cout << "; out" << port << ":";
                for (std::uint32_t v : values)
                    std::cout << " " << v;
                std::cout << "\n";
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "gecko_cc: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
