#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "campaign/snapshot.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "ir/assembler.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/jit_checkpoint.hpp"
#include "sim/machine.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace gecko::sim {
namespace {

using compiler::CompiledProgram;
using compiler::Scheme;

CompiledProgram
tinyProgram()
{
    return compiler::compile(ir::Assembler::assemble("t", R"(
        movi r1, 11
        movi r2, 22
        in   r3, 1
        halt
)"),
                             Scheme::kNvp);
}

TEST(JitCheckpointTest, RoundTripRestoresVolatileState)
{
    CompiledProgram prog = tinyProgram();
    Nvm nvm(1024);
    IoHub io;
    Machine m(prog, nvm, io);
    m.regs()[1] = 0xdead;
    m.regs()[15] = 0xbeef;
    m.setPc(3);
    m.pendingIn()[1] = 2;
    m.pendingOut()[0] = 5;

    auto res = JitCheckpoint::checkpoint(m, nvm);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.wordsWritten, static_cast<int>(Nvm::kJitWords));
    EXPECT_EQ(nvm.jit[Nvm::kJitAckIndex], 1u);  // toggled from 0

    Machine m2(prog, nvm, io);
    JitCheckpoint::restore(m2, nvm);
    EXPECT_EQ(m2.regs()[1], 0xdeadu);
    EXPECT_EQ(m2.regs()[15], 0xbeefu);
    EXPECT_EQ(m2.pc(), 3u);
    EXPECT_EQ(m2.pendingIn()[1], 2u);
    EXPECT_EQ(m2.pendingOut()[0], 5u);
}

TEST(JitCheckpointTest, AckTogglesEveryCompleteCheckpoint)
{
    CompiledProgram prog = tinyProgram();
    Nvm nvm(1024);
    IoHub io;
    Machine m(prog, nvm, io);
    JitCheckpoint::checkpoint(m, nvm);
    EXPECT_EQ(nvm.jit[Nvm::kJitAckIndex], 1u);
    JitCheckpoint::checkpoint(m, nvm);
    EXPECT_EQ(nvm.jit[Nvm::kJitAckIndex], 0u);
}

TEST(JitCheckpointTest, TornCheckpointLeavesAckUntouched)
{
    CompiledProgram prog = tinyProgram();
    Nvm nvm(1024);
    IoHub io;
    Machine m(prog, nvm, io);
    m.regs()[0] = 0x1111;
    m.regs()[5] = 0x5555;

    // Die after 6 words.
    auto res = JitCheckpoint::checkpoint(m, nvm, 6);
    EXPECT_FALSE(res.complete);
    EXPECT_EQ(res.wordsWritten, 6);
    EXPECT_EQ(nvm.jit[Nvm::kJitAckIndex], 0u);  // never toggled
    EXPECT_EQ(nvm.jit[0], 0x1111u);             // early words landed
    EXPECT_EQ(nvm.jit[5], 0x5555u);
    EXPECT_EQ(nvm.jit[10], 0u);                 // later words did not
}

TEST(JitCheckpointTest, TornImageRestoresMixedState)
{
    // The data-corruption vector: old and new words interleaved.
    CompiledProgram prog = tinyProgram();
    Nvm nvm(1024);
    IoHub io;
    Machine m(prog, nvm, io);
    m.regs()[1] = 100;
    m.regs()[10] = 200;
    JitCheckpoint::checkpoint(m, nvm);  // complete, old state

    m.regs()[1] = 111;
    m.regs()[10] = 222;
    JitCheckpoint::checkpoint(m, nvm, 3);  // torn after r0..r2

    Machine m2(prog, nvm, io);
    JitCheckpoint::restore(m2, nvm);
    EXPECT_EQ(m2.regs()[1], 111u);   // new value (written before death)
    EXPECT_EQ(m2.regs()[10], 200u);  // stale value — inconsistent image
}

// ---------------------------------------------------------------------
// Segment-batched JIT bursts (DESIGN.md §14).  The simulator pays for
// checkpoint words in segments that end at the next tear, 64-word
// recharge or veto read, marching the per-word arithmetic on locals;
// an armed write-fault hook drops it to one word per segment.  A hook
// that never fires must therefore change nothing, wherever the tear
// lands relative to the veto word and the recharge.
// ---------------------------------------------------------------------

struct JitVictim {
    std::vector<std::uint8_t> snapshot;
    std::vector<std::uint32_t> memory;
    std::array<std::uint32_t, Nvm::kJitWords> jit{};
    double energy = 0.0;
    double now = 0.0;
    Counters counters;
    /// Words the first checkpoint attempt wrote (a tear's position).
    std::uint64_t firstAttemptWords = 0;
};

/**
 * An NVP victim booted just above a V_backup placed `marginWords`
 * checkpoint words above V_off, on a supply too weak to carry the load
 * (or a `dark` one, whose 64-word recharge only leaks): the first
 * backup tears the checkpoint within a quantum's worth of words of the
 * margin, `phase` words shifting where.  `tone` adds a 27 MHz carrier
 * whose forged wakes veto some attempts.
 */
JitVictim
runJitVictim(int ramWords, int marginWords, int phase, bool dark,
             bool tone, bool armed)
{
    static const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), compiler::Scheme::kNvp);
    device::DeviceProfile dev = device::DeviceDb::msp430fr5994();
    const double c = 1e-4;
    const double word = kJitStoreCycles * dev.power.energyPerCycleJ;
    const double eOff = 0.5 * c * dev.vOff * dev.vOff;
    const auto volts = [c](double e) { return std::sqrt(2.0 * e / c); };
    SimConfig cfg;
    cfg.cap.capacitanceF = c;
    cfg.jitRamWords = ramWords;
    cfg.bootOverheadCycles = 0;
    cfg.vBackupOverride = volts(eOff + marginWords * word);
    cfg.cap.initialV = volts(eOff + (marginWords + 400 + phase) * word);
    dev.vOn = cfg.cap.initialV - 1e-6;
    cfg.coalesceQuanta = 0;

    IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::ConstantHarvester supply(dark ? 0.0 : 3.3, 2000.0);
    IntermittentSim simulation(compiled, dev, cfg, supply, io);
    if (armed)
        simulation.setJitWriteFault([](int) { return false; });
    attack::RemoteRig rig(dev, cfg.monitorKind, 0.5);
    attack::EmiSource source(rig, 27e6, 30.0);
    if (tone)
        simulation.setEmiSource(&source);

    JitVictim r;
    // Stop right after the first attempt to read its tear position.
    while (simulation.stats.jitCheckpointAttempts == 0 &&
           simulation.now() < 0.01)
        simulation.run(1e-5);
    r.firstAttemptWords = simulation.nvm().jitAreaWrites;
    simulation.run(0.02);
    r.snapshot = campaign::saveSimSnapshot(simulation, io);
    r.memory = simulation.nvm().data();
    r.jit = simulation.nvm().jit;
    r.energy = simulation.capacitor().energy();
    r.now = simulation.now();
    r.counters = simulation.counters();
    return r;
}

TEST(JitSegmentTest, BatchedGrantsMatchOneWordSegments)
{
    std::set<std::uint64_t> tears;
    std::uint64_t aborted = 0;
    std::uint64_t complete = 0;
    for (int ramWords : {0, 100}) {
        for (int margin : {50, 60, 70, 80, 90}) {
            for (int phase = 0; phase < 20; ++phase) {
                for (int env = 0; env < 4; ++env) {
                    const bool dark = env & 1;
                    const bool tone = env & 2;
                    JitVictim batched = runJitVictim(ramWords, margin, phase,
                                                     dark, tone, false);
                    JitVictim perWord = runJitVictim(ramWords, margin, phase,
                                                     dark, tone, true);
                    const std::string label =
                        "ram " + std::to_string(ramWords) + " margin " +
                        std::to_string(margin) + " phase " +
                        std::to_string(phase) + (dark ? " dark" : "") +
                        (tone ? " tone" : "");
                    EXPECT_EQ(batched.memory, perWord.memory) << label;
                    EXPECT_EQ(batched.jit, perWord.jit) << label;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.energy),
                              std::bit_cast<std::uint64_t>(perWord.energy))
                        << label;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.now),
                              std::bit_cast<std::uint64_t>(perWord.now))
                        << label;
                    EXPECT_EQ(test::firstArchivedDifference(
                                  batched.counters, perWord.counters),
                              "")
                        << label;
                    EXPECT_EQ(batched.firstAttemptWords,
                              perWord.firstAttemptWords)
                        << label;
                    EXPECT_TRUE(batched.snapshot == perWord.snapshot)
                        << label;
                    const SimStats& stats = batched.counters.sim;
                    if (!tone && stats.jitCheckpointsTorn > 0)
                        tears.insert(batched.firstAttemptWords);
                    aborted += stats.jitCheckpointsAborted;
                    complete += stats.jitCheckpointsComplete;
                }
            }
        }
    }
    // The grid must tear just before, on and just after both segment
    // boundaries: the veto read after word 48 (kJitAbortWindowWords)
    // and the recharge after word 64.
    for (std::uint64_t w : {47u, 48u, 49u, 63u, 64u, 65u})
        EXPECT_TRUE(tears.count(w)) << "no tear after " << w << " words";
    EXPECT_GT(aborted, 0u) << "no forged-wake veto";
    EXPECT_GT(complete, 0u);
}

}  // namespace
}  // namespace gecko::sim
