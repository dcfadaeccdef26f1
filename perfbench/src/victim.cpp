#include "victim.hpp"

#include <algorithm>
#include <optional>

#include "attack/emi_source.hpp"
#include "sim/machine.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace gecko;

compiler::CompileCache::Ptr
compileVictim(const std::string& workload, compiler::Scheme scheme,
              const std::string& deviceName, Tracer* tracer)
{
    return compiler::CompileCache::global().getOrCompile(
        compiler::CompileCache::makeKey(workload, scheme, deviceName), [&] {
            Scope span(tracer, "compiler.compile",
                       workload + "/" + compiler::schemeName(scheme));
            return compiler::compile(workloads::build(workload), scheme);
        });
}

void
digestSim(sim::IntermittentSim& sim, const sim::IoHub& io, Digest& d)
{
    const sim::ExecStats& ms = sim.machine().stats;
    for (std::uint64_t v : {ms.instrs, ms.cycles, ms.ckptStores,
                            ms.boundaryCommits, ms.completions, ms.faults})
        d.u64(v);
    // The quantum counters are left out on purpose: they describe how
    // the simulator stepped, and a pure speed change may alter them.
    const sim::SimStats& ss = sim.stats;
    d.f64(ss.simTimeS);
    for (std::uint64_t v :
         {ss.reboots, ss.hardDeaths, ss.backupSignals, ss.wakeSignals,
          ss.ignoredBackups, ss.jitCheckpointAttempts,
          ss.jitCheckpointsComplete, ss.jitCheckpointsTorn,
          ss.jitCheckpointsAborted, ss.missedCheckpoints, ss.bootCycles})
        d.u64(v);
    const runtime::RuntimeStats& rs = sim.geckoRuntime().stats;
    for (std::uint64_t v :
         {rs.rollbacks, rs.jitRestores, rs.corruptedRestores,
          rs.attackDetections, rs.ackDetections, rs.dosDetections,
          rs.jitReenables, rs.recoveryBlockRuns, rs.recoveryInstrRuns,
          rs.crcRejects, rs.slotRepairs, rs.slotUnrecoverable,
          rs.ckptSaveRetries, rs.retriesExhausted,
          rs.integrityDegradations})
        d.u64(v);
    if (const defense::DefenseController* dc = sim.defenseController()) {
        const defense::DefenseStats& ds = dc->stats();
        for (std::uint64_t v :
             {ds.samples, ds.anomalies, ds.disagreements, ds.edgeSkews,
              ds.physicsViolations, ds.escalations, ds.deEscalations,
              ds.ratchetTrips, ds.relapses, ds.wakesDeferred})
            d.u64(v);
    }
    d.u64(sim.nvm().commitCount);
    d.words(sim.nvm().data());
    for (int port = 0; port < sim::kIoPorts; ++port)
        d.words(io.output(port).values());
}

void
countSim(sim::IntermittentSim& sim, Tracer& t)
{
    const sim::ExecStats& ms = sim.machine().stats;
    const sim::SimStats& ss = sim.stats;
    const runtime::RuntimeStats& rs = sim.geckoRuntime().stats;
    auto add = [&t](const char* name, std::uint64_t v) {
        t.add(name, static_cast<double>(v));
    };
    add("sim.victims", 1);
    add("machine.instrs", ms.instrs);
    add("machine.cycles", ms.cycles);
    add("sim.quanta", ss.quanta);
    add("sim.coalesced_quanta", ss.coalescedQuanta);
    add("jit.attempts", ss.jitCheckpointAttempts);
    add("jit.complete", ss.jitCheckpointsComplete);
    add("jit.torn", ss.jitCheckpointsTorn);
    add("jit.aborted", ss.jitCheckpointsAborted);
    add("jit.missed", ss.missedCheckpoints);
    add("runtime.reboots", ss.reboots);
    add("runtime.hard_deaths", ss.hardDeaths);
    add("runtime.rollbacks", rs.rollbacks);
    add("runtime.corrupted_restores", rs.corruptedRestores);
    add("monitor.backup_signals", ss.backupSignals);
    add("monitor.wake_signals", ss.wakeSignals);
    if (const defense::DefenseController* dc = sim.defenseController()) {
        add("defense.samples", dc->stats().samples);
        add("defense.escalations", dc->stats().escalations);
        add("defense.wakes_deferred", dc->stats().wakesDeferred);
    }
}

void
runVictim(const VictimSpec& v, UnitTimer& timer, Tracer* tracer,
          Digest& digest, std::vector<ReplayJob>* replays)
{
    Scope victimSpan(tracer, "sim.victim", v.label);
    sim::IoHub io;
    workloads::setupIo(v.workload, io);
    std::optional<TracedHarvester> traced;
    energy::Harvester* supply = v.supply;
    if (tracer)
        supply = &traced.emplace(*v.supply);
    sim::IntermittentSim simulation(*v.program, *v.device, v.config,
                                    *supply, io);
    std::optional<attack::EmiSource> source;
    if (v.rig)
        simulation.setEmiSource(&source.emplace(*v.rig, v.freqHz, v.powerDbm));
    const double slice = v.simSeconds / v.slices;
    for (int s = 0; s < v.slices; ++s) {
        {
            Scope runSpan(tracer, "sim.run", v.label);
            simulation.run(slice);
        }
        timer.lap();
    }
    digest.str(v.label);
    digestSim(simulation, io, digest);
    if (!tracer)
        return;
    countSim(simulation, *tracer);
    tracer->add("energy.harvester_calls",
                static_cast<double>(traced->calls()));
    tracer->add("energy.harvester_s", traced->seconds());
    // The loop runs the machine once per slow quantum and once per
    // coalesced burst.
    const sim::SimStats& ss = simulation.stats;
    if (replays)
        replays->push_back({v.label, v.program, v.workload,
                            v.config.memWords,
                            simulation.machine().stats.cycles,
                            ss.quanta - ss.coalescedQuanta +
                                ss.coalescedBursts});
}

void
replayMachines(const std::vector<ReplayJob>& jobs, Tracer& tracer)
{
    for (const ReplayJob& job : jobs) {
        sim::Nvm nvm(job.memWords);
        sim::IoHub io;
        workloads::setupIo(job.workload, io);
        sim::Machine machine(*job.program, nvm, io);
        machine.setStagedIo(job.program->scheme != compiler::Scheme::kNvp);
        machine.setContinuous(true);
        machine.setFaultTolerant(true);
        const std::uint64_t budget =
            std::max<std::uint64_t>(1, job.cycles /
                                           std::max<std::uint64_t>(1, job.runs));
        std::uint64_t done = 0;
        {
            Scope span(&tracer, "machine.replay", job.label);
            while (done < job.cycles) {
                std::uint64_t consumed = 0;
                machine.run(std::min(budget, job.cycles - done), &consumed);
                done += std::max<std::uint64_t>(1, consumed);
            }
        }
        tracer.add("machine.replay_instrs",
                   static_cast<double>(machine.stats.instrs));
    }
}

}  // namespace perfbench
