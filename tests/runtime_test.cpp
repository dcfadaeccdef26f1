#include <gtest/gtest.h>

#include "compiler/pipeline.hpp"
#include "runtime/gecko_runtime.hpp"
#include "sim/jit_checkpoint.hpp"
#include "workloads/workloads.hpp"

namespace gecko::runtime {
namespace {

using compiler::CompiledProgram;
using compiler::Scheme;
using sim::IoHub;
using sim::JitCheckpoint;
using sim::Machine;
using sim::Nvm;

struct Rig {
    CompiledProgram prog;
    Nvm nvm{16384};
    IoHub io;
    Machine machine;
    GeckoRuntime runtime;

    explicit Rig(Scheme scheme, const std::string& workload = "bitcnt")
        : prog(compiler::compile(workloads::build(workload), scheme)),
          machine(prog, nvm, io), runtime(prog, machine, nvm)
    {
        machine.setStagedIo(scheme != Scheme::kNvp);
        workloads::setupIo(workload, io);
    }

    /** Run `cycles` machine cycles. */
    void run(std::uint64_t cycles)
    {
        std::uint64_t consumed = 0;
        machine.run(cycles, &consumed);
        if (consumed > 0)
            runtime.noteExecutionSinceCheckpoint();
        runtime.onProgress();
    }

    /** Power failure without a checkpoint (hard death) + reboot. */
    void hardFailAndBoot()
    {
        machine.powerCycle();
        runtime.onBoot();
    }

    /** Graceful JIT checkpoint then reboot. */
    void gracefulFailAndBoot()
    {
        JitCheckpoint::checkpoint(machine, nvm);
        runtime.noteJitCheckpointComplete();
        machine.powerCycle();
        runtime.onBoot();
    }
};

TEST(GeckoRuntimeTest, JitActivityPerScheme)
{
    EXPECT_TRUE(Rig(Scheme::kNvp).runtime.jitActive());
    EXPECT_FALSE(Rig(Scheme::kRatchet).runtime.jitActive());
    EXPECT_TRUE(Rig(Scheme::kGecko).runtime.jitActive());
}

TEST(GeckoRuntimeTest, GracefulCycleRollsForward)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.onBoot();  // initial boot
    rig.run(500);
    std::uint32_t pc_before = rig.machine.pc();
    auto regs_before = rig.machine.regs();

    rig.gracefulFailAndBoot();

    EXPECT_EQ(rig.machine.pc(), pc_before);
    EXPECT_EQ(rig.machine.regs(), regs_before);
    EXPECT_TRUE(rig.runtime.jitActive());
    EXPECT_EQ(rig.runtime.stats.attackDetections, 0u);
    EXPECT_EQ(rig.runtime.stats.jitRestores, 2u);
    EXPECT_EQ(rig.runtime.stats.corruptedRestores, 0u);
}

TEST(GeckoRuntimeTest, AckDetectionDisablesJitOnHardDeath)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.onBoot();
    rig.run(500);  // make progress; no checkpoint taken

    rig.hardFailAndBoot();

    // ACK did not change across the power cycle: attack assumed.
    EXPECT_GE(rig.runtime.stats.ackDetections, 1u);
    EXPECT_GE(rig.runtime.stats.attackDetections, 1u);
    EXPECT_FALSE(rig.runtime.jitActive());
    EXPECT_EQ(rig.runtime.stats.rollbacks, 1u);
    // Rolled back to the last committed region's entry.
    std::uint32_t region = rig.nvm.committedRegion;
    EXPECT_EQ(rig.machine.pc(), rig.prog.region(static_cast<int>(region))
                                    .entryIdx);
}

TEST(GeckoRuntimeTest, DosDetectionWithoutProgress)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.onBoot();
    rig.run(2000);
    rig.gracefulFailAndBoot();  // healthy cycle

    // Now a churn cycle: checkpoint again immediately with no progress.
    JitCheckpoint::checkpoint(rig.machine, rig.nvm);
    rig.runtime.noteJitCheckpointComplete();
    rig.machine.powerCycle();
    rig.runtime.onBoot();

    EXPECT_GE(rig.runtime.stats.dosDetections, 1u);
    EXPECT_FALSE(rig.runtime.jitActive());
}

TEST(GeckoRuntimeTest, ReenableAfterQuietFirstRegion)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.onBoot();
    rig.run(500);
    rig.hardFailAndBoot();  // attack detected, JIT off
    ASSERT_FALSE(rig.runtime.jitActive());

    // Next boot: no backup signal during the first region.
    rig.hardFailAndBoot();
    rig.run(5000);  // completes at least one region quietly
    EXPECT_TRUE(rig.runtime.jitActive());
    EXPECT_GE(rig.runtime.stats.jitReenables, 1u);
}

TEST(GeckoRuntimeTest, NoReenableWhileSignalsKeepComing)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.onBoot();
    rig.run(500);
    rig.hardFailAndBoot();
    ASSERT_FALSE(rig.runtime.jitActive());

    rig.hardFailAndBoot();
    rig.runtime.onBackupSignal();  // the (ignored) monitor fires again
    rig.run(5000);
    EXPECT_FALSE(rig.runtime.jitActive());
    EXPECT_EQ(rig.runtime.stats.jitReenables, 0u);
}

TEST(GeckoRuntimeTest, RatchetAlwaysRollsBack)
{
    Rig rig(Scheme::kRatchet);
    rig.runtime.onBoot();
    rig.run(500);
    rig.hardFailAndBoot();
    EXPECT_EQ(rig.runtime.stats.rollbacks, 2u);  // initial boot + failure
    EXPECT_EQ(rig.runtime.stats.jitRestores, 0u);
}

TEST(GeckoRuntimeTest, NvpRestoresStaleImageAndCounts)
{
    Rig rig(Scheme::kNvp);
    rig.runtime.onBoot();
    rig.run(500);
    rig.hardFailAndBoot();  // no checkpoint: restores the boot image
    EXPECT_GE(rig.runtime.stats.corruptedRestores, 1u);
    EXPECT_TRUE(rig.runtime.jitActive());  // NVP has no defence
}

TEST(GeckoRuntimeTest, TornImageRejectedAtEveryTruncationOffset)
{
    // Every truncation offset of the 28-word image must fail the
    // guarded-restore check: offsets before the epoch word leave a
    // consumed (stale) epoch, offsets before the CRC word leave a stale
    // CRC over mixed contents, and an offset at the ACK word leaves a
    // CRC that folded an ACK value never written.
    for (int cut = 0; cut < static_cast<int>(Nvm::kJitWords); ++cut) {
        Rig rig(Scheme::kGecko);
        // Detectors off: the torn image must be caught by the CRC/epoch
        // guard itself, not by the ACK/timer attack detectors.
        rig.runtime.setDetectors(false, false);
        rig.runtime.onBoot();
        rig.run(500);
        rig.gracefulFailAndBoot();  // last-known-good state
        rig.run(500);

        JitCheckpoint::checkpoint(rig.machine, rig.nvm, cut);
        rig.machine.powerCycle();
        rig.runtime.onBoot();

        EXPECT_EQ(rig.runtime.stats.crcRejects, 1u) << "cut=" << cut;
        EXPECT_GE(rig.runtime.stats.corruptedRestores, 1u) << "cut=" << cut;
        // The fallback rolled back to the last committed region: pc at
        // its entry, live-ins restored from the guarded slots.
        const auto& info =
            rig.prog.region(static_cast<int>(rig.nvm.committedRegion));
        EXPECT_EQ(rig.machine.pc(), info.entryIdx) << "cut=" << cut;
        for (const auto& ck : info.ckpts) {
            EXPECT_EQ(rig.machine.regs()[ck.reg],
                      rig.nvm.slots[ck.reg]
                                   [static_cast<std::size_t>(ck.slot)])
                << "cut=" << cut << " r" << static_cast<int>(ck.reg);
        }
    }
}

TEST(GeckoRuntimeTest, PersistentIntegrityFailuresDegradeToRollback)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.setDetectors(false, false);
    rig.runtime.onBoot();
    for (int i = 0; i < GeckoRuntime::kMaxIntegrityFailures; ++i) {
        ASSERT_TRUE(rig.runtime.jitActive()) << "boot " << i;
        rig.run(500);
        JitCheckpoint::checkpoint(rig.machine, rig.nvm, 5);
        rig.machine.powerCycle();
        rig.runtime.onBoot();
    }
    // Three consecutive CRC rejects: graceful degradation to the
    // JIT-disabled rollback mode, with the re-enable probe armed.
    EXPECT_EQ(rig.runtime.stats.crcRejects,
              static_cast<std::uint64_t>(
                  GeckoRuntime::kMaxIntegrityFailures));
    EXPECT_EQ(rig.runtime.stats.integrityDegradations, 1u);
    EXPECT_FALSE(rig.runtime.jitActive());
}

TEST(GeckoRuntimeTest, ValidCheckpointResetsIntegrityFailureStreak)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.setDetectors(false, false);
    rig.runtime.onBoot();
    for (int i = 0; i < 4; ++i) {
        rig.run(500);
        JitCheckpoint::checkpoint(rig.machine, rig.nvm, 5);
        rig.machine.powerCycle();
        rig.runtime.onBoot();  // CRC reject
        rig.run(500);
        rig.gracefulFailAndBoot();  // valid restore resets the streak
    }
    EXPECT_EQ(rig.runtime.stats.crcRejects, 4u);
    EXPECT_EQ(rig.runtime.stats.integrityDegradations, 0u);
    EXPECT_TRUE(rig.runtime.jitActive());
}

TEST(GeckoRuntimeTest, RollbackRestoresLiveInsFromSlots)
{
    Rig rig(Scheme::kGecko);
    rig.runtime.onBoot();
    // Run long enough to commit several regions mid-loop.
    rig.run(3000);
    ASSERT_GT(rig.nvm.commitCount, 1u);

    // Capture the committed region and its restore table.
    std::uint32_t region = rig.nvm.committedRegion;
    const auto& info = rig.prog.region(static_cast<int>(region));

    rig.hardFailAndBoot();
    for (const auto& ck : info.ckpts) {
        EXPECT_EQ(rig.machine.regs()[ck.reg],
                  rig.nvm.slots[ck.reg][static_cast<std::size_t>(ck.slot)])
            << "r" << static_cast<int>(ck.reg);
    }
    EXPECT_EQ(rig.machine.pc(), info.entryIdx);
}

}  // namespace
}  // namespace gecko::runtime
