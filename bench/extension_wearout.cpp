#include "bench_util.hpp"

/**
 * @file
 * Extension: EMI checkpoint churn as a wear-out attack.
 *
 * The paper's related work (§VIII, Cronin et al. [19]) shows frequent
 * checkpointing wears out non-volatile checkpoint storage.  An EMI
 * attacker forging backup signals gets that for free: every forged
 * checkpoint rewrites the whole CTPL image.  This bench measures NVM
 * word-writes into the checkpoint areas per simulated second, clean vs
 * attacked, for NVP and GECKO — GECKO's detection caps the write
 * amplification by closing the protocol.
 */

int
main(int argc, char** argv)
{
    using namespace gecko;
    using namespace gecko::bench;
    bench::init(argc, argv);

    std::cout << "=== Extension: checkpoint-churn wear-out "
                 "(MSP430FR5994, 27 MHz @ 0.1 m) ===\n\n";

    const auto& dev = device::DeviceDb::msp430fr5994();
    const double kSeconds = 1.0;

    struct Point {
        compiler::Scheme scheme;
        bool attacked;
    };
    std::vector<Point> points;
    for (auto scheme : {compiler::Scheme::kNvp, compiler::Scheme::kGecko})
        for (bool attacked : {false, true})
            points.push_back({scheme, attacked});

    struct Rates {
        double jit, slot;
    };
    auto rates = runSweep("wearout", points, [&](const Point& p) {
        auto compiled =
            compiler::compile(workloads::build("sensor_loop"), p.scheme);
        sim::IoHub io;
        workloads::setupIo("sensor_loop", io);
        // 1 Hz outages: one legitimate checkpoint per second.
        energy::SquareWaveHarvester wave(3.3, 5.0, 0.5, 0.5);
        sim::SimConfig config;
        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.1);
        attack::EmiSource source(rig, 27e6, 35.0);
        if (p.attacked)
            simulation.setEmiSource(&source);
        simulation.run(kSeconds);
        noteCounters(simulation.counters());
        return Rates{simulation.nvm().jitAreaWrites / kSeconds,
                     simulation.nvm().slotWrites / kSeconds};
    });

    metrics::TextTable table;
    table.header({"scheme", "attack", "JIT-area writes/s",
                  "slot writes/s", "amplification"});

    std::size_t idx = 0;
    for (auto scheme : {compiler::Scheme::kNvp, compiler::Scheme::kGecko}) {
        double clean_rate = 0.0;
        for (bool attacked : {false, true}) {
            const Rates& r = rates[idx++];
            if (!attacked)
                clean_rate = r.jit + r.slot;
            double amp =
                clean_rate > 0 ? (r.jit + r.slot) / clean_rate : 0.0;
            table.row({compiler::schemeName(scheme),
                       attacked ? "YES" : "no", metrics::fmt(r.jit, 0),
                       metrics::fmt(r.slot, 0),
                       attacked ? metrics::fmt(amp, 1) + "x" : "1.0x"});
        }
    }
    table.print(std::cout);

    std::cout << "\nFRAM endures ~1e15 writes, but MRAM/RRAM checkpoint "
                 "storage (1e9..1e12) would be consumed orders of "
                 "magnitude faster under forged-checkpoint churn; GECKO "
                 "bounds the amplification by disabling the protocol "
                 "once the attack is detected.\n";
    return bench::writeBenchReport("extension_wearout");
}
