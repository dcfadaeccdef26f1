#ifndef GECKO_PERFBENCH_VICTIM_HPP_
#define GECKO_PERFBENCH_VICTIM_HPP_

#include <string>
#include <vector>

#include "attack/rigs.hpp"
#include "bench.hpp"
#include "compiler/compile_cache.hpp"
#include "device/device_profile.hpp"
#include "sim/intermittent_sim.hpp"

/**
 * @file
 * Victim construction shared by the simulator workloads, from the same
 * public calls the figure binaries use: IntermittentSim, a harvester,
 * a RemoteRig and an EmiSource.
 */

namespace perfbench {

/** One victim simulation, fully built by a workload's setup(). */
struct VictimSpec {
    std::string label;
    std::string workload;
    gecko::compiler::CompileCache::Ptr program;
    const gecko::device::DeviceProfile* device = nullptr;
    gecko::sim::SimConfig config;
    /// Energy source (owned by the workload's inputs).
    gecko::energy::Harvester* supply = nullptr;
    /// Attack rig; null runs the victim without an attacker.
    const gecko::attack::InjectionRig* rig = nullptr;
    double freqHz = 0.0;
    double powerDbm = 0.0;
    double simSeconds = 0.0;
    /// The horizon runs as this many equal IntermittentSim::run calls;
    /// each is one timed unit of the round.
    int slices = 1;
};

/** What the traced run replays on a standalone machine afterwards. */
struct ReplayJob {
    std::string label;
    gecko::compiler::CompileCache::Ptr program;
    std::string workload;
    std::size_t memWords = 0;
    std::uint64_t cycles = 0;
    /// Machine runs the simulation made for those cycles.
    std::uint64_t runs = 0;
};

/**
 * Compile a victim program through the global CompileCache, keyed as
 * the campaign engine keys it, under a compiler.compile span.
 */
gecko::compiler::CompileCache::Ptr
compileVictim(const std::string& workload, gecko::compiler::Scheme scheme,
              const std::string& deviceName, Tracer* tracer);

/**
 * Run one victim, one timed unit per slice, and fold its simulated
 * results into `digest`.  With a tracer: the supply is wrapped in a
 * TracedHarvester, each run() gets a span, the simulated statistics
 * become counters, and a replay job is appended to `replays`.
 */
void runVictim(const VictimSpec& v, UnitTimer& timer, Tracer* tracer,
               Digest& digest, std::vector<ReplayJob>* replays);

/** Fold a finished simulation's statistics and outputs into `digest`. */
void digestSim(gecko::sim::IntermittentSim& sim, const gecko::sim::IoHub& io,
               Digest& digest);

/** Add a finished simulation's statistics to the tracer's counters. */
void countSim(gecko::sim::IntermittentSim& sim, Tracer& tracer);

/**
 * Re-run each job's cycle count on a standalone sim::Machine in the
 * job's mean budget per machine run: an outside estimate of the
 * machine's share of the simulator's time (machine.* spans).
 */
void replayMachines(const std::vector<ReplayJob>& jobs, Tracer& tracer);

}  // namespace perfbench

#endif  // GECKO_PERFBENCH_VICTIM_HPP_
