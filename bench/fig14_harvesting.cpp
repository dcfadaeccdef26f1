#include "bench_util.hpp"

/**
 * @file
 * Figure 14: performance in a real energy-harvesting environment.
 *
 * Every benchmark runs continuously on a Powercast-like RF harvesting
 * trace (~1 Hz outages); completions over a fixed simulated duration
 * give each scheme's throughput, reported as execution time normalized
 * to NVP.  The paper reports Ratchet worst (many checkpoint stores) and
 * GECKO ≈ 6 % over NVP.
 */

int
main(int argc, char** argv)
{
    using namespace gecko;
    using namespace gecko::bench;
    bench::init(argc, argv);

    std::cout << "=== Fig. 14: performance under RF energy harvesting "
                 "(1 Hz outages) ===\n\n";

    const auto& dev = device::DeviceDb::msp430fr5994();
    const double kSimSeconds = 4.0;

    const std::vector<compiler::Scheme> schemes = {
        compiler::Scheme::kNvp, compiler::Scheme::kRatchet,
        compiler::Scheme::kGecko};

    struct Point {
        std::string name;
        compiler::Scheme scheme;
    };
    std::vector<Point> points;
    for (const std::string& name : workloads::benchmarkNames())
        for (auto scheme : schemes)
            points.push_back({name, scheme});

    auto completions = runSweep("harvesting", points, [&](const Point& p) {
        auto compiled =
            compiler::compile(workloads::build(p.name), p.scheme);
        sim::IoHub io;
        workloads::setupIo(p.name, io);
        energy::TraceHarvester trace =
            energy::makeRfTrace(3.3, 5.0, 1.0, 0.55, kSimSeconds, 7);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;
        sim::IntermittentSim simulation(compiled, dev, config, trace, io);
        simulation.run(kSimSeconds);
        noteCounters(simulation.counters());
        return simulation.machine().stats.completions;
    });

    metrics::TextTable table;
    table.header({"benchmark", "NVP compl.", "Ratchet", "GECKO"});

    std::vector<double> ratchet_norm, gecko_norm;
    std::size_t idx = 0;
    for (const std::string& name : workloads::benchmarkNames()) {
        std::uint64_t done[3] = {};
        for (int i = 0; i < 3; ++i)
            done[i] = completions[idx++];
        double r = done[1] ? static_cast<double>(done[0]) / done[1] : 0.0;
        double g = done[2] ? static_cast<double>(done[0]) / done[2] : 0.0;
        ratchet_norm.push_back(r);
        gecko_norm.push_back(g);
        table.row({name, std::to_string(done[0]),
                   metrics::fmt(r, 2) + "x", metrics::fmt(g, 2) + "x"});
    }
    table.row({"average", "",
               metrics::fmt(metrics::mean(ratchet_norm), 2) + "x",
               metrics::fmt(metrics::mean(gecko_norm), 2) + "x"});
    table.print(std::cout);

    std::cout << "\nPaper shape: Ratchet slowest (checkpoint-store "
                 "volume and long-region re-execution), GECKO within a "
                 "few percent of NVP.\n";
    return bench::writeBenchReport("fig14_harvesting");
}
