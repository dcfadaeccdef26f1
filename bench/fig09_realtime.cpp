#include "bench_util.hpp"

/**
 * @file
 * Figure 9: real-time attack analysis on the MSP430FR5994.
 *
 * The attacker retunes the carrier over time to control how aggressive
 * the DoS is (stealthiness).  We replay a schedule of tones against
 * both monitor types and report forward progress per window.  Each
 * variant is one continuous simulation (windows depend on each other),
 * so the sweep parallelises across variants, not windows.
 */

namespace {

struct Window {
    double startS, endS;
    double freqMhz;  // 0 = attacker idle
};

}  // namespace

int
main(int argc, char** argv)
{
    using namespace gecko;
    using namespace gecko::bench;
    bench::init(argc, argv);

    std::cout << "=== Fig. 9: real-time attack control "
                 "(MSP430FR5994) ===\n\n";

    const auto& dev = device::DeviceDb::msp430fr5994();

    struct Variant {
        analog::MonitorKind kind;
        std::vector<Window> windows;
        const char* label;
    };
    std::vector<Variant> variants = {
        {analog::MonitorKind::kAdc,
         {{0.00, 0.05, 0}, {0.05, 0.10, 27}, {0.10, 0.15, 24},
          {0.15, 0.20, 27}, {0.20, 0.25, 0}, {0.25, 0.30, 30}},
         "(a) ADC-based monitor"},
        {analog::MonitorKind::kComparator,
         {{0.00, 0.05, 0}, {0.05, 0.10, 5}, {0.10, 0.15, 8},
          {0.15, 0.20, 6}, {0.20, 0.25, 0}, {0.25, 0.30, 5}},
         "(b) comparator-based monitor"},
    };

    // One table's rows per variant (the in-variant windows are a
    // single continuous simulation).
    auto tables = runSweep(
        "realtime", variants,
        [&](const Variant& variant) -> std::vector<std::vector<std::string>> {
            auto compiled = compiler::compile(
                workloads::build("sensor_loop"), compiler::Scheme::kNvp);
            sim::IoHub io;
            workloads::setupIo("sensor_loop", io);
            energy::ConstantHarvester supply(3.3, 5.0);
            sim::SimConfig config;
            config.monitorKind = variant.kind;
            config.cap.capacitanceF = 1e-3;

            std::vector<attack::AttackWindow> windows;
            for (const Window& w : variant.windows)
                if (w.freqMhz > 0)
                    windows.push_back(
                        {w.startS, w.endS, w.freqMhz * 1e6, 35.0});
            const attack::AttackSchedule schedule(std::move(windows));

            attack::RemoteRig rig(dev, variant.kind, 0.5);
            attack::EmiSource source(rig, 27e6, 35.0);
            sim::IntermittentSim simulation(compiled, dev, config, supply,
                                            io);
            simulation.setEmiSource(&source);
            simulation.setAttackSchedule(&schedule);

            // Reference cycle rate from the first clean window.
            std::vector<std::vector<std::string>> rows;
            std::uint64_t prev_cycles = 0;
            double clean_rate = 0.0;
            for (std::size_t i = 0; i < variant.windows.size(); ++i) {
                const Window& w = variant.windows[i];
                simulation.run(w.endS - w.startS);
                std::uint64_t cycles =
                    simulation.machine().stats.cycles - prev_cycles;
                prev_cycles = simulation.machine().stats.cycles;
                double rate =
                    static_cast<double>(cycles) / (w.endS - w.startS);
                if (i == 0)
                    clean_rate = rate;
                std::string tone = w.freqMhz > 0
                                       ? metrics::fmt(w.freqMhz, 0) + " MHz"
                                       : "idle";
                rows.push_back(
                    {metrics::fmt(w.startS, 2) + "-" +
                         metrics::fmt(w.endS, 2) + " s",
                     tone,
                     metrics::fmtPercent(
                         clean_rate > 0 ? rate / clean_rate : 0.0, 1)});
            }
            noteCounters(simulation.counters());
            return rows;
        });

    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::cout << variants[v].label << "\n";
        metrics::TextTable table;
        table.header({"window", "tone", "progress rate"});
        for (const auto& row : tables[v])
            table.row(row);
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Paper shape: retuning the carrier modulates the victim's "
                 "forward progress at will — detuned tones throttle "
                 "without fully stopping (stealthy), resonant tones cause "
                 "full DoS.\n";
    return bench::writeBenchReport("fig09_realtime");
}
