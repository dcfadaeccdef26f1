#include "bench_util.hpp"

#include "defense/controller.hpp"

/**
 * @file
 * Adaptive-defense figure (DESIGN.md §11, beyond the paper): the online
 * DefenseController vs. the paper's static detector configuration under
 * a *sustained* EMI tone.
 *
 * The paper evaluates burst attacks (Fig. 13); its static response —
 * detect at boot, disable JIT, probe, re-enable — assumes the tone goes
 * away.  Under a sustained tone the static configuration keeps paying
 * forged-wake boot energy and torn-checkpoint retries, so throughput
 * collapses.  The adaptive controller cross-validates the redundant
 * monitor views, scores dV/dt against the RC physics bound, escalates
 * to rollback-only operation, and gates wake signals on a physics-timed
 * recharge dwell so forward progress survives the tone.
 *
 * Grid: {ADC, comparator} monitor x {clean, sustained attack} x
 * {static, adaptive}.  Reported per cell: completions, reboots,
 * detection latency (first escalation minus attack onset), escalation /
 * de-escalation / ratchet counters, deferred wakes, and the final mode.
 * Self-checks (exit status):
 *  - clean adaptive runs never escalate (zero false positives),
 *  - attacked adaptive runs detect (escalations > 0) with non-negative
 *    latency and complete at least as much work as static,
 *  - attacked adaptive runs de-escalate back to nominal after the tone
 *    ends (hysteresis round trip).
 */

int
main(int argc, char** argv)
{
    using namespace gecko;
    using namespace gecko::bench;
    bench::init(argc, argv);
    bench::telemetry().defenseMode = "adaptive";

    const double kTotalS = 8.0;
    const double kAttackStartS = 1.0;
    const double kAttackEndS = 6.0;

    std::cout << "=== Adaptive defense vs sustained EMI "
                 "(sensor app, tone " << kAttackStartS << "-"
              << kAttackEndS << " s of " << kTotalS << " s) ===\n\n";

    const auto& dev = device::DeviceDb::msp430fr5994();

    struct Point {
        analog::MonitorKind monitor;
        bool attacked;
        bool adaptive;
    };
    std::vector<Point> points;
    for (auto kind :
         {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator})
        for (bool attacked : {false, true})
            for (bool adaptive : {false, true})
                points.push_back({kind, attacked, adaptive});

    struct Cell {
        sim::Counters counters;
        defense::Mode finalMode = defense::Mode::kNominal;
        bool hadController = false;
    };
    auto cells = runSweep("adaptive", points, [&](const Point& p) {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 60000;
        auto compiled = compiler::compile(workloads::build("sensor_app"),
                                          compiler::Scheme::kGecko,
                                          pconfig);
        sim::IoHub io;
        workloads::setupIo("sensor_app", io);
        energy::ConstantHarvester wave(3.3, 600.0);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;
        config.monitorKind = p.monitor;
        config.defense.enabled = p.adaptive;
        // Tighter energy-debt SLA than the 8-buffer default: a forged
        // wake burns a failed boot (~48 uJ) per lockout release, so one
        // buffered-energy's worth (~2.3 mJ here) bounds the waste to
        // ~1 s before the ratchet trips to the recharge-dwell mode.
        config.defense.energyDebtBudgetJ = 2.5e-3;

        // Tone on the attacked path's resonance (Table I): ADC path at
        // 27 MHz, FR5994 comparator path at 5 MHz.
        const double toneHz =
            p.monitor == analog::MonitorKind::kAdc ? 27e6 : 5e6;
        attack::RemoteRig rig(dev, p.monitor, 0.5);
        attack::EmiSource source(rig, toneHz, 38.0);
        std::vector<attack::AttackWindow> windows;
        if (p.attacked)
            windows.push_back({kAttackStartS, kAttackEndS, toneHz, 38.0});
        attack::AttackSchedule schedule(windows);

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.setEmiSource(&source);
        simulation.setAttackSchedule(&schedule);
        simulation.run(kTotalS);

        Cell cell{simulation.counters()};
        if (const defense::DefenseController* dc =
                simulation.defenseController()) {
            cell.finalMode = dc->mode();
            cell.hadController = true;
        }
        noteCounters(cell.counters);
        return cell;
    });

    bool ok = true;
    auto check = [&](bool cond, const std::string& what) {
        if (!cond) {
            std::cout << "# FAIL: " << what << "\n";
            ok = false;
        }
    };

    metrics::TextTable table;
    table.header({"monitor", "attack", "defense", "done", "reboots",
                  "detectS", "esc", "deesc", "ratchet", "wakeDefer",
                  "peakDebtJ", "finalMode"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        const Cell& c = cells[i];
        const defense::DefenseStats& d = c.counters.defense;
        double latency = -1.0;
        if (c.hadController && d.firstEscalationT >= 0)
            latency = d.firstEscalationT - kAttackStartS;
        table.row({analog::monitorKindName(p.monitor),
                   p.attacked ? "sustained" : "none",
                   p.adaptive ? "adaptive" : "static",
                   std::to_string(c.counters.exec.completions),
                   std::to_string(c.counters.sim.reboots),
                   latency >= 0 ? metrics::fmt(latency, 4) : "-",
                   std::to_string(d.escalations),
                   std::to_string(d.deEscalations),
                   std::to_string(d.ratchetTrips),
                   std::to_string(d.wakesDeferred),
                   metrics::fmt(d.peakEnergyDebtJ, 5),
                   c.hadController ? defense::modeName(c.finalMode)
                                   : "-"});
    }
    table.print(std::cout);
    std::cout << "\n";

    // Pair up (static, adaptive) cells per (monitor, attack) for the
    // self-checks; the sweep order interleaves them adjacently.
    for (std::size_t i = 0; i < points.size(); i += 2) {
        const Point& p = points[i + 1];
        const Cell& st = cells[i];
        const Cell& ad = cells[i + 1];
        const defense::DefenseStats& d = ad.counters.defense;
        const std::uint64_t done = ad.counters.exec.completions;
        const std::uint64_t staticDone = st.counters.exec.completions;
        std::string label =
            std::string(analog::monitorKindName(p.monitor)) +
            (p.attacked ? "/attacked" : "/clean");
        check(ad.hadController, label + ": controller armed");
        if (!p.attacked) {
            check(d.escalations == 0,
                  label + ": false positives (escalations=" +
                      std::to_string(d.escalations) + ")");
            check(done == staticDone,
                  label + ": clean adaptive throughput diverged");
        } else {
            check(d.escalations > 0, label + ": no detection");
            check(d.firstEscalationT >= kAttackStartS,
                  label + ": detected before attack onset");
            check(done >= staticDone,
                  label + ": adaptive (" + std::to_string(done) +
                      ") below static (" + std::to_string(staticDone) +
                      ")");
            check(done > 0, label + ": adaptive made no progress");
            check(ad.finalMode == defense::Mode::kNominal,
                  label + ": did not de-escalate to nominal");
        }
    }

    std::cout << (ok ? "# adaptive-defense checks passed\n"
                     : "# adaptive-defense checks FAILED\n");
    int rc = bench::writeBenchReport("fig_adaptive",
                                     ok ? "pass" : "fail");
    return ok ? rc : 1;
}
