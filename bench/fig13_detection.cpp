#include "bench_util.hpp"

/**
 * @file
 * Figure 13 (+ §VII-B3): attack detection and recovery over time.
 *
 * The sensing application runs on intermittent (1 Hz outage) power for
 * fifty scaled "minutes" while EMI attack bursts hit according to the
 * paper's six scenarios: (a) none, (b) at 40 min, (c) at 30 min,
 * (d) 20/40 min, (e) 15/30/35 min, (f) 10/25/40 min.  Throughput
 * (completions per minute) is reported per 5-minute bin for NVP,
 * Ratchet, and GECKO.
 *
 * Expected shape: NVP's throughput collapses at the first burst and —
 * once a torn checkpoint poisons its state — often never recovers;
 * Ratchet cannot finish its long compute region inside attack-shortened
 * power cycles (DoS); GECKO detects each burst (ACK/timer), switches to
 * rollback mode, keeps a substantial fraction of its throughput, and
 * re-arms JIT after the burst.
 */

int
main(int argc, char** argv)
{
    using namespace gecko;
    using namespace gecko::bench;
    bench::init(argc, argv);

    // One paper-"minute" is scaled to this many simulated seconds.
    const double kMinuteS = 0.2;
    const double kTotalMin = 50.0;
    const double kBinMin = 5.0;

    std::cout << "=== Fig. 13: attack detection & recovery "
                 "(sensor app, 1 Hz outages, minute = " << kMinuteS
              << " s) ===\n\n";

    const auto& dev = device::DeviceDb::msp430fr5994();

    const std::vector<char> scenarios = {'a', 'b', 'c', 'd', 'e', 'f'};
    const std::vector<compiler::Scheme> schemes = {
        compiler::Scheme::kNvp, compiler::Scheme::kRatchet,
        compiler::Scheme::kGecko};

    // Each (scenario, scheme) cell is an independent simulation: the
    // whole figure parallelises as one 18-task sweep.
    struct Point {
        char scenario;
        compiler::Scheme scheme;
    };
    std::vector<Point> points;
    for (char scenario : scenarios)
        for (auto scheme : schemes)
            points.push_back({scenario, scheme});

    struct Cell {
        std::vector<std::uint64_t> bins;
        std::uint64_t total = 0;
        std::uint64_t corruption = 0;
    };
    auto cells = runSweep("detection", points, [&](const Point& p) {
        // Regions sized for the shortest legitimate power-on period
        // of this energy environment.
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 6000;
        auto compiled = compiler::compile(workloads::build("sensor_app"),
                                          p.scheme, pconfig);
        sim::IoHub io;
        workloads::setupIo("sensor_app", io);
        // Charge-run duty cycling: the harvester cannot sustain the
        // active draw, so the node periodically computes off the
        // capacitor and recharges — the classic intermittent regime
        // where forged wake signals shorten the power-on periods.
        energy::ConstantHarvester wave(3.3, 150.0);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;

        attack::AttackSchedule schedule = attack::AttackSchedule::scenario(
            p.scenario, kMinuteS, 5.0, 27e6, 35.0);
        attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.5);
        attack::EmiSource source(rig, 27e6, 35.0);

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.setEmiSource(&source);
        simulation.setAttackSchedule(&schedule);

        Cell cell;
        std::uint64_t prev = 0;
        for (double m = 0; m < kTotalMin; m += kBinMin) {
            simulation.run(kBinMin * kMinuteS);
            std::uint64_t done =
                simulation.machine().stats.completions - prev;
            prev = simulation.machine().stats.completions;
            cell.total += done;
            cell.bins.push_back(done);
        }
        cell.corruption = io.output(0).conflicts() +
                          simulation.geckoRuntime().stats.corruptedRestores;
        noteCounters(simulation.counters());
        return cell;
    });

    // Clean NVP reference throughput (for the §VII-B3 41 % claim).
    double nvp_clean_rate = 0.0;

    std::size_t idx = 0;
    for (char scenario : scenarios) {
        std::cout << "--- scenario (" << scenario << "): "
                  << attack::AttackSchedule::scenarioDescription(scenario)
                  << " ---\n";
        metrics::TextTable table;
        std::vector<std::string> header = {"scheme"};
        for (double m = 0; m < kTotalMin; m += kBinMin)
            header.push_back(metrics::fmt(m, 0) + "-" +
                             metrics::fmt(m + kBinMin, 0) + "m");
        header.push_back("total");
        table.header(header);

        for (auto scheme : schemes) {
            const Cell& cell = cells[idx++];
            std::vector<std::string> row = {compiler::schemeName(scheme)};
            for (std::uint64_t done : cell.bins)
                row.push_back(std::to_string(done));
            row.push_back(
                std::to_string(cell.total) +
                (cell.corruption
                     ? " (corrupt:" + std::to_string(cell.corruption) + ")"
                     : ""));
            table.row(row);

            if (scenario == 'a' && scheme == compiler::Scheme::kNvp)
                nvp_clean_rate = static_cast<double>(cell.total);
            if (scenario == 'f' && scheme == compiler::Scheme::kGecko &&
                nvp_clean_rate > 0) {
                std::cout << "  [GECKO throughput under scenario (f): "
                          << metrics::fmtPercent(
                                 cell.total / nvp_clean_rate, 0)
                          << " of unattacked NVP — paper reports ~41%]\n";
            }
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    return bench::writeBenchReport("fig13_detection");
}
