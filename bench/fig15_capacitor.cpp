#include <cmath>

#include "bench_util.hpp"

/**
 * @file
 * Figure 15: capacitor-size sensitivity.
 *
 * NVP and GECKO run the sensing application to a fixed completion
 * target with energy buffers of 1/2/5/10 mF.  Following §VII-D, the
 * checkpoint threshold is adjusted so every capacitor buffers the same
 * energy; supercap leakage scales with capacitance, so charging a big
 * buffer from the weak harvester takes disproportionately longer and
 * total execution time rises sharply with size.
 */

int
main(int argc, char** argv)
{
    using namespace gecko;
    using namespace gecko::bench;
    bench::init(argc, argv);

    std::cout << "=== Fig. 15: total execution time vs capacitor size "
                 "===\n\n";

    const auto& dev = device::DeviceDb::msp430fr5994();
    const std::uint64_t kTargetCompletions = 600;
    const double kVOn = 3.0;
    // Reference buffered energy: the 1 mF window of the main setup.
    const double kEnergy =
        energy::bufferedEnergy(1e-3, kVOn, dev.vBackup);

    struct Point {
        double capacitanceF;
        compiler::Scheme scheme;
    };
    std::vector<Point> points;
    for (double c : {1e-3, 2e-3, 5e-3, 10e-3})
        for (auto scheme :
             {compiler::Scheme::kNvp, compiler::Scheme::kGecko})
            points.push_back({c, scheme});

    auto times = runSweep("capacitor", points, [&](const Point& p) {
        double v_backup =
            std::sqrt(kVOn * kVOn - 2.0 * kEnergy / p.capacitanceF);
        auto compiled =
            compiler::compile(workloads::build("sensor_loop"), p.scheme);
        sim::IoHub io;
        workloads::setupIo("sensor_loop", io);
        // Weak harvester: cannot sustain the active draw, so the
        // node duty-cycles between computing (V_on -> V_backup) and
        // recharging.
        energy::ConstantHarvester weak(3.35, 100.0);
        sim::SimConfig config;
        config.cap.capacitanceF = p.capacitanceF;
        config.cap.initialV = kVOn;
        config.cap.maxV = 3.35;
        config.cap.leakageS = 0.05 * p.capacitanceF;  // supercap leak ~ C
        config.vBackupOverride = v_backup;
        sim::IntermittentSim simulation(compiled, dev, config, weak, io);
        simulation.runUntilCompletions(kTargetCompletions, 300.0);
        noteCounters(simulation.counters());
        return simulation.now();
    });

    metrics::TextTable table;
    table.header({"capacitor", "V_backup", "NVP time [s]",
                  "GECKO time [s]"});

    std::size_t idx = 0;
    for (double c : {1e-3, 2e-3, 5e-3, 10e-3}) {
        double v_backup = std::sqrt(kVOn * kVOn - 2.0 * kEnergy / c);
        double nvp_time = times[idx++];
        double gecko_time = times[idx++];
        table.row({metrics::fmt(c * 1e3, 0) + " mF",
                   metrics::fmt(v_backup, 2) + " V",
                   metrics::fmt(nvp_time, 2), metrics::fmt(gecko_time, 2)});
    }
    table.print(std::cout);

    std::cout << "\nPaper shape: GECKO tracks NVP at every size; both "
                 "are fastest at 1 mF and slow sharply as the capacitor "
                 "grows (charging dominates).\n";
    return bench::writeBenchReport("fig15_capacitor");
}
