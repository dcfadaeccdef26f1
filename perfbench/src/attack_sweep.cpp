#include <memory>

#include "defense/defense.hpp"
#include "device/device_db.hpp"
#include "exp/rng.hpp"
#include "victim.hpp"

/**
 * @file
 * attack_sweep: victims under EMI in the style of Table I's F_max
 * runs.  Boards are attacked at their monitor-path resonances from
 * 0.1 m at 35 dBm while running on the 1 Hz square-wave outage supply,
 * for 2 s each; every point runs an NVP victim and a GECKO victim
 * with the adaptive defense preset.  Almost no quantum coalesces
 * here, so the quantum loop's slow path (sleep stepping under a tone,
 * monitor and EMI sampling, JIT bursts, defense sampling) dominates.
 *
 * The 2 s horizon is kept on purpose: at 27 MHz the tone's phase
 * argument passes 1.05e8 rad after ~0.62 s, where glibc's sin() gets
 * several times slower.
 */

namespace perfbench {

namespace {

using namespace gecko;

struct Point {
    const char* label;
    const char* device;
    analog::MonitorKind path;
    double freqHz;
};

constexpr Point kPoints[] = {
    {"fr5994-adc-27MHz", "MSP430FR5994", analog::MonitorKind::kAdc, 27e6},
    {"fr5994-comp-5MHz", "MSP430FR5994", analog::MonitorKind::kComparator,
     5e6},
    {"stm32l552-adc-17MHz", "STM32L552ZE", analog::MonitorKind::kAdc, 17e6},
};

constexpr double kSimSeconds = 2.0;
constexpr int kSlices = 8;

class AttackSweep final : public Workload
{
  public:
    explicit AttackSweep(std::uint64_t variant) : variant_(variant) {}

    void setup(Tracer* tracer) override
    {
        compiler::CompileCache::global().clear();
        auto inputs = std::make_unique<Inputs>();
        inputs->victims.reserve(std::size(kPoints) * 2);
        for (const Point& p : kPoints) {
            const device::DeviceProfile& dev =
                device::DeviceDb::byName(p.device);
            inputs->rigs.push_back(
                std::make_unique<attack::RemoteRig>(dev, p.path, 0.1));
            for (auto scheme :
                 {compiler::Scheme::kNvp, compiler::Scheme::kGecko}) {
                VictimSpec v;
                v.label = std::string(p.label) + "/" +
                          compiler::schemeName(scheme);
                v.workload = "sensor_loop";
                v.program =
                    compileVictim(v.workload, scheme, dev.name, tracer);
                v.device = &dev;
                v.config.cap.capacitanceF = 1e-3;
                v.config.cap.initialV = 3.3;
                v.config.monitorKind = p.path;
                v.config.monitorSeed = exp::mixSeed(0xa77acull, variant_);
                if (scheme == compiler::Scheme::kGecko)
                    defense::presetByName("adaptive", &v.config.defense);
                v.supply = &inputs->supply;
                v.rig = inputs->rigs.back().get();
                v.freqHz = p.freqHz;
                v.powerDbm = 35.0;
                v.simSeconds = kSimSeconds;
                v.slices = kSlices;
                inputs->victims.push_back(std::move(v));
            }
        }
        inputs_ = std::move(inputs);
    }

    RoundResult round(UnitTimer& timer, Tracer* tracer) override
    {
        RoundResult r;
        Digest digest;
        for (const VictimSpec& v : inputs_->victims) {
            runVictim(v, timer, tracer, digest, &replays_);
            ++r.ops;
        }
        r.digest = digest.hex();
        return r;
    }

    std::uint64_t probes(Tracer& tracer) override
    {
        replayMachines(replays_, tracer);
        replays_.clear();
        return 0;
    }

  private:
    struct Inputs {
        energy::SquareWaveHarvester supply{3.3, 5.0, 0.5, 0.5};
        std::vector<std::unique_ptr<attack::RemoteRig>> rigs;
        std::vector<VictimSpec> victims;
    };

    std::uint64_t variant_;
    std::unique_ptr<Inputs> inputs_;
    std::vector<ReplayJob> replays_;
};

}  // namespace

std::unique_ptr<Workload>
makeAttackSweep(std::uint64_t variant)
{
    return std::make_unique<AttackSweep>(variant);
}

}  // namespace perfbench
