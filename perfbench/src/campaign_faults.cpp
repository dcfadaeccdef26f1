#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "attack/emi_source.hpp"
#include "campaign/engine.hpp"
#include "campaign/manifest.hpp"
#include "campaign/snapshot.hpp"
#include "defense/defense.hpp"
#include "device/device_db.hpp"
#include "exp/rng.hpp"
#include "exp/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "victim.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * campaign_faults: both campaign drivers, plus the snapshot calls they
 * are built on.  The work is journal, snapshot and golden-oracle work
 * rather than quantum-loop work.
 *
 *  1. A durable campaign::runCampaign in a fresh directory over
 *     {sensor_loop, crc16, fir} x {NVP, GECKO} x {clean, tone, burst} x
 *     {static, adaptive} x seeds, stopped halfway through
 *     EngineConfig::stopRequested so the in-flight job snapshots.
 *  2. The journal replayed with readManifest, then the campaign
 *     resumed to completion (it reads the journal leg 1 wrote).
 *  3. An in-memory fault::runCampaign at a fixed case count and seed.
 *  4. Victims saved mid-run with saveSimSnapshot, persisted with
 *     writeSnapshotFile, and finished in a fresh simulator after
 *     restoreSimSnapshot.
 *
 * The fault campaign's golden oracles are cached for the life of the
 * process (src/fault), so they are computed by the untimed warm-up
 * round and the traced run measures them again as a probe.
 */

namespace perfbench {

namespace {

using namespace gecko;
namespace fs = std::filesystem;

const std::vector<std::string> kWorkloads = {"sensor_loop", "crc16", "fir"};
const std::vector<compiler::Scheme> kSchemes = {compiler::Scheme::kNvp,
                                                compiler::Scheme::kGecko};
constexpr const char* kDevice = "MSP430FR5994";
constexpr int kFaultCases = 160;
constexpr std::uint64_t kFaultSeed = 42;

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream all;
    all << in.rdbuf();
    return all.str();
}

class CampaignFaults final : public Workload
{
  public:
    CampaignFaults(std::uint64_t variant, const std::string& workDir)
        : variant_(variant), dir_(workDir + "/campaign")
    {
    }

    void setup(Tracer* tracer) override
    {
        compiler::CompileCache::global().clear();
        auto inputs = std::make_unique<Inputs>();
        const device::DeviceProfile& dev = device::DeviceDb::byName(kDevice);
        for (const std::string& w : kWorkloads)
            for (auto scheme : kSchemes)
                inputs->programs[w + "/" + compiler::schemeName(scheme)] =
                    compileVictim(w, scheme, kDevice, tracer);

        campaign::EngineConfig& ec = inputs->engine;
        ec.dir = dir_;
        ec.space.workloads = kWorkloads;
        ec.space.schemes = kSchemes;
        ec.space.devices = {kDevice};
        campaign::Scenario tone, burst;
        tone.kind = campaign::ScenarioKind::kTone;
        burst.kind = campaign::ScenarioKind::kBurst;
        ec.space.scenarios = {campaign::Scenario{}, tone, burst};
        ec.space.defenses = {"static", "adaptive"};
        ec.space.seeds = {1, 2};
        ec.space.simSeconds = 0.05;
        ec.space.sliceSimSeconds = 0.0125;
        ec.seed = exp::mixSeed(0xca3a16ull, variant_);

        inputs->faults.seed = kFaultSeed;
        inputs->faults.cases = kFaultCases;
        inputs->faults.pool = &pool_;

        // Snapshot leg: GECKO victims under a 27 MHz tone, configured
        // like campaign jobs.
        inputs->rig = std::make_unique<attack::RemoteRig>(
            dev, analog::MonitorKind::kAdc, 0.5);
        for (const std::string& w : kWorkloads) {
            VictimSpec v;
            v.label = "snapshot/" + w;
            v.workload = w;
            v.program = inputs->programs[w + "/GECKO"];
            v.device = &dev;
            v.config.memWords = 4096;
            v.config.jitRamWords = 64;
            v.config.bootOverheadCycles = 1000;
            v.config.cap.capacitanceF = 20e-6;
            v.config.cap.initialV = 3.3;
            v.config.monitorSeed = exp::mixSeed(ec.seed, 7);
            defense::presetByName("adaptive", &v.config.defense);
            v.supply = &inputs->supply;
            v.rig = inputs->rig.get();
            v.freqHz = 27e6;
            v.powerDbm = 35.0;
            v.simSeconds = 0.05;
            inputs->snapshotVictims.push_back(std::move(v));
        }

        fs::remove_all(dir_);
        fs::create_directories(dir_);
        inputs_ = std::move(inputs);
        dirty_ = false;
    }

    RoundResult round(UnitTimer& timer, Tracer* tracer) override
    {
        if (dirty_) {
            fs::remove_all(dir_);
            fs::create_directories(dir_);
            timer.skip();
        }
        dirty_ = true;
        RoundResult r;
        Digest digest;
        runEngine(timer, tracer, r, digest);
        runFaults(timer, tracer, r, digest);
        for (const VictimSpec& v : inputs_->snapshotVictims)
            runSnapshotVictim(v, tracer, r, digest);
        timer.lap();
        r.digest = digest.hex();
        return r;
    }

    std::uint64_t probes(Tracer& tracer) override
    {
        // Each case of the fault leg, standalone, against the outcome
        // the campaign reported for it.
        std::uint64_t mismatches = 0;
        const std::vector<fault::CaseSpec> cases =
            fault::makeCampaignCases(inputs_->faults);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            fault::CaseResult res;
            {
                Scope span(&tracer, "fault.case", cases[i].workload);
                res = fault::runCase(cases[i], inputs_->faults.simTimeBudgetS,
                                     inputs_->faults.watchdogBudget);
            }
            if (i >= lastCases_.size() || res.outcome != lastCases_[i])
                ++mismatches;
        }
        // The fault-free oracle runs of the machine-level cases.
        std::set<std::string> seen;
        for (const fault::CaseSpec& spec : cases) {
            const std::string key =
                spec.workload + "/" + compiler::schemeName(spec.scheme);
            if (fault::isSimLevel(spec.injector) || !seen.insert(key).second)
                continue;
            const compiler::CompiledProgram prog = compiler::compile(
                workloads::build(spec.workload), spec.scheme);
            sim::Nvm nvm(16384);
            sim::IoHub io;
            workloads::setupIo(spec.workload, io);
            Scope span(&tracer, "fault.golden", key);
            sim::runToCompletion(prog, nvm, io);
        }
        return mismatches;
    }

  private:
    struct Inputs {
        std::map<std::string, compiler::CompileCache::Ptr> programs;
        campaign::EngineConfig engine;
        fault::CampaignConfig faults;
        energy::ConstantHarvester supply{3.3, 5.0};
        std::unique_ptr<attack::RemoteRig> rig;
        std::vector<VictimSpec> snapshotVictims;
    };

    void runEngine(UnitTimer& timer, Tracer* tracer, RoundResult& r,
                   Digest& digest)
    {
        campaign::EngineConfig ec = inputs_->engine;
        const std::uint64_t total = ec.space.jobCount();
        // Stop once the first job past the halfway mark has run two of
        // its slices, so that job snapshots mid-run.
        std::uint64_t started = 0;
        std::uint64_t checksInJob = 0;
        ec.beforeJob = [&](std::uint64_t job) {
            ++started;
            checksInJob = 0;
            if (tracer)
                tracer->tick("campaign.job", std::to_string(job));
        };
        ec.stopRequested = [&] {
            return started > total / 2 && ++checksInJob > 2;
        };
        campaign::EngineReport first;
        {
            Scope span(tracer, "campaign.run", "stopped");
            first = campaign::runCampaign(ec, pool_);
        }
        timer.lap();

        const std::string manifestPath = ec.dir + "/manifest.jsonl";
        campaign::ManifestRecovery rec;
        {
            Scope span(tracer, "manifest.replay");
            rec = campaign::readManifest(manifestPath);
        }
        ec.stopRequested = nullptr;
        campaign::EngineReport second;
        {
            Scope span(tracer, "campaign.run", "resumed");
            second = campaign::runCampaign(ec, pool_);
        }
        timer.lap();

        r.ops += total;
        r.failedOps += first.attemptsFailed + second.attemptsFailed +
                       second.jobsQuarantined;
        // The resume must pick up exactly the one interrupted job from
        // its snapshot and finish the space.
        if (!second.complete || second.jobsDone != total ||
            second.resumedFromSnapshot != 1 || first.jobsDone >= total ||
            rec.tornLines != 0)
            ++r.failedOps;
        digest.str(second.aggregateJson);
        digest.str(readFile(ec.dir + "/aggregate.json"));
        if (tracer) {
            const std::string journal = readFile(manifestPath);
            tracer->add("campaign.jobs", static_cast<double>(total));
            tracer->add("campaign.attempts_failed",
                        static_cast<double>(first.attemptsFailed +
                                            second.attemptsFailed));
            tracer->add("campaign.resumed_from_snapshot",
                        static_cast<double>(second.resumedFromSnapshot));
            tracer->add("manifest.records",
                        static_cast<double>(std::count(
                            journal.begin(), journal.end(), '\n')));
            tracer->add("manifest.bytes",
                        static_cast<double>(journal.size()));
        }
    }

    void runFaults(UnitTimer& timer, Tracer* tracer, RoundResult& r,
                   Digest& digest)
    {
        fault::CampaignResult res;
        {
            Scope span(tracer, "fault.campaign");
            res = fault::runCampaign(inputs_->faults);
        }
        timer.lap();
        r.ops += res.cases.size();
        r.failedOps += res.geckoCorruptions;
        digest.str(res.report);
        digest.str(res.corpus);
        lastCases_.clear();
        for (const fault::CaseResult& c : res.cases)
            lastCases_.push_back(c.outcome);
        if (tracer) {
            tracer->add("fault.cases", static_cast<double>(res.cases.size()));
            tracer->add("fault.corpus_kept",
                        static_cast<double>(res.corpusCases.size()));
            tracer->add("fault.gecko_corruptions",
                        static_cast<double>(res.geckoCorruptions));
        }
    }

    /**
     * Run the first half, snapshot to disk, and finish the second half
     * in a freshly built simulator restored from the file.
     */
    void runSnapshotVictim(const VictimSpec& v, Tracer* tracer,
                           RoundResult& r, Digest& digest)
    {
        Scope victimSpan(tracer, "sim.victim", v.label);
        const std::string path = dir_ + "/victim.snap";
        std::vector<std::uint8_t> blob;
        {
            sim::IoHub io;
            workloads::setupIo(v.workload, io);
            sim::IntermittentSim first(*v.program, *v.device, v.config,
                                       *v.supply, io);
            attack::EmiSource source(*v.rig, v.freqHz, v.powerDbm);
            first.setEmiSource(&source);
            {
                Scope span(tracer, "sim.run", v.label);
                first.run(v.simSeconds / 2);
            }
            {
                Scope span(tracer, "snapshot.save", v.label);
                blob = campaign::saveSimSnapshot(first, io);
            }
            Scope span(tracer, "snapshot.write", v.label);
            if (!campaign::writeSnapshotFile(path, blob))
                ++r.failedOps;
        }
        ++r.ops;
        sim::IoHub io;
        workloads::setupIo(v.workload, io);
        sim::IntermittentSim second(*v.program, *v.device, v.config,
                                    *v.supply, io);
        attack::EmiSource source(*v.rig, v.freqHz, v.powerDbm);
        second.setEmiSource(&source);
        try {
            Scope span(tracer, "snapshot.restore", v.label);
            campaign::restoreSimSnapshot(second, io,
                                         campaign::readSnapshotFile(path));
        } catch (const std::exception&) {
            ++r.failedOps;
            return;
        }
        {
            Scope span(tracer, "sim.run", v.label);
            second.run(v.simSeconds / 2);
        }
        digest.str(v.label);
        digest.u64(blob.size());
        digestSim(second, io, digest);
        if (tracer) {
            countSim(second, *tracer);
            tracer->add("snapshot.bytes", static_cast<double>(blob.size()));
        }
    }

    std::uint64_t variant_;
    std::string dir_;
    exp::ThreadPool pool_{1};
    std::unique_ptr<Inputs> inputs_;
    bool dirty_ = false;
    std::vector<fault::CaseOutcome> lastCases_;
};

}  // namespace

std::unique_ptr<Workload>
makeCampaignFaults(std::uint64_t variant, const std::string& workDir)
{
    return std::make_unique<CampaignFaults>(variant, workDir);
}

}  // namespace perfbench
