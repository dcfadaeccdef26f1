#ifndef GECKO_PERFBENCH_BENCH_HPP_
#define GECKO_PERFBENCH_BENCH_HPP_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/harvester.hpp"

/**
 * @file
 * Shared pieces of the benchmark driver: the round timer, the output
 * digest, the span tracer, and the workload interface.
 *
 * A workload splits its fixed work into one *round*: a fixed sequence
 * of timed units (a victim slice, a campaign leg, ...).  The driver
 * runs many identical rounds and estimates each unit's host time as a
 * low quantile over the rounds; wall_s is the sum of those estimates.
 */

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a over the simulated results a round produced. */
class Digest
{
  public:
    void bytes(const void* data, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    void words(const std::vector<std::uint32_t>& w)
    {
        u64(w.size());
        bytes(w.data(), w.size() * sizeof(std::uint32_t));
    }
    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/**
 * In-memory span recorder for the traced run.  Spans nest through an
 * explicit stack (the driver is single-threaded); counters carry the
 * simulated statistics and call counts measured at the same
 * boundaries.  Nothing touches disk until write().
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        std::string tag;
        int parent = -1;
        double start = 0.0;  // seconds since the tracer's epoch
        double end = 0.0;
        double duration() const { return end - start; }
    };

    int begin(const std::string& name, const std::string& tag = "");
    void end(int id);
    /** Record an instant (zero-length span), e.g. a job-start tick. */
    void tick(const std::string& name, const std::string& tag = "");
    void add(const std::string& counter, double value);

    double counter(const std::string& name) const;
    /** Summed duration of every span called `name`. */
    double total(const std::string& name) const;
    /** Summed self time (duration minus child spans) of `name`. */
    double self(const std::string& name) const;
    std::vector<double> durations(const std::string& name) const;
    /** Start times of every span or tick called `name`. */
    std::vector<double> starts(const std::string& name) const;
    double now() const { return secondsSince(epoch_); }

    /**
     * Write every span and counter as JSON lines, then one summary line
     * per span name with its count, total and self time.
     */
    bool write(const std::string& path) const;

  private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::pair<std::string, double>> counters_;
};

/** RAII span; a no-op when the tracer is null (untimed rounds). */
class Scope
{
  public:
    Scope(Tracer* tracer, const std::string& name,
          const std::string& tag = "")
        : tracer_(tracer), id_(tracer ? tracer->begin(name, tag) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    int id_;
};

/**
 * Forwarding harvester that counts calls and times every 16th one.
 * Forwards all four queries exactly — steadyOver and constantOver
 * included — so the simulator's coalescing decisions are unchanged
 * and the traced run's digest equals the untraced one.
 */
class TracedHarvester final : public gecko::energy::Harvester
{
  public:
    explicit TracedHarvester(gecko::energy::Harvester& inner)
        : inner_(inner)
    {
    }

    double openCircuitVoltage(double t) const override;
    double seriesResistance(double t) const override;
    bool steadyOver(double t, double dt) const override;
    bool constantOver(double t, double dt) const override;

    std::uint64_t calls() const { return calls_; }
    /** Estimated seconds inside the wrapped harvester. */
    double seconds() const;

  private:
    template <class Fn>
    auto timed(Fn fn) const;

    gecko::energy::Harvester& inner_;
    mutable std::uint64_t calls_ = 0;
    mutable std::uint64_t sampled_ = 0;
    mutable double sampledS_ = 0.0;
};

/** Records the host time of each unit of a round, in order. */
class UnitTimer
{
  public:
    void start()
    {
        laps_.clear();
        last_ = Clock::now();
    }
    /** Leave the time since the last lap out of every unit. */
    void skip() { last_ = Clock::now(); }
    /** Close the current unit and open the next one. */
    void lap()
    {
        const auto t = Clock::now();
        laps_.push_back(std::chrono::duration<double>(t - last_).count());
        last_ = t;
    }
    const std::vector<double>& laps() const { return laps_; }

  private:
    Clock::time_point last_;
    std::vector<double> laps_;
};

/** What one round produced. */
struct RoundResult {
    std::string digest;
    /// Operations (victim runs, campaign jobs, fault cases, snapshot
    /// restores) and how many of them failed.
    std::uint64_t ops = 0;
    std::uint64_t failedOps = 0;
};

/**
 * One benchmark workload.  setup() builds a round's inputs from cold;
 * round() runs the fixed work on them.  With a tracer, both record
 * spans, and probes() adds the per-layer measurements that only the
 * traced run makes.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(Tracer* tracer) = 0;
    virtual RoundResult round(UnitTimer& timer, Tracer* tracer) = 0;
    /** @return checks that failed. */
    virtual std::uint64_t probes(Tracer& tracer) = 0;
};

/**
 * Build a workload by name (nullptr when unknown).  `variant` selects
 * the seed-derived inputs; `workDir` is a scratch directory the
 * workload may use for campaign files.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t variant,
                                       const std::string& workDir);

std::unique_ptr<Workload> makeAttackSweep(std::uint64_t variant);
std::unique_ptr<Workload> makeHarvestCompute(std::uint64_t variant);
std::unique_ptr<Workload> makeCampaignFaults(std::uint64_t variant,
                                             const std::string& workDir);

}  // namespace perfbench

#endif  // GECKO_PERFBENCH_BENCH_HPP_
