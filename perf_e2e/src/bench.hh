/**
 * @file
 * The workload interface shared by the three user paths, and what one
 * measured pass of a workload yields.
 */

#ifndef PERF_E2E_BENCH_HH
#define PERF_E2E_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"
#include "support/json.hh"

namespace perf_e2e
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the run's own files (journals, state); the
     * workload may create and remove anything inside it. */
    std::string workDir;
};

/** One measured pass: operations run back to back until time is up. */
struct Pass
{
    std::vector<double> latencyMs;  ///< one per completed operation
    double wallSeconds = 0.0;       ///< time the operations took
    double items = 0.0;             ///< seeds / events / requests done
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

/**
 * Paces a pass over a fixed cycle of inputs: the pass ends only at a
 * cycle boundary, once time is up and enough operations ran, so every
 * pass runs the same mix of inputs.
 *
 * Each cycle also runs on the next of the process's allowed CPUs (and
 * so do the processes it forks). On a shared host one virtual CPU can
 * run a third slower than the others for minutes while steal reads 0;
 * a single-threaded pass left where the scheduler put it would take on
 * that CPU's speed whole, while rotating gives every run the same mix
 * of CPUs. The calling thread's affinity is restored when the pass ends.
 */
class CyclePacer
{
  public:
    CyclePacer(std::size_t cycleLength, double seconds, std::size_t minOps);
    ~CyclePacer();

    CyclePacer(const CyclePacer &) = delete;
    CyclePacer &operator=(const CyclePacer &) = delete;

    /** True when operation i should run; false ends the pass. */
    bool next(std::size_t i, Pass &pass);

  private:
    std::size_t length_;
    double seconds_;
    std::size_t minOps_;
    Clock::time_point start_ = Clock::now();
    std::vector<int> cpus_;  ///< allowed CPUs; empty if not readable
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** One user path; see README.md for why each exists. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs and the reference outputs. Called several
     * times so set-up time is a median; the last build is kept. */
    virtual void setup() = 0;

    /**
     * Run operations until at least `seconds` have passed and at
     * least `minOps` have completed. Spans go to `spans` (which may
     * be off); each operation's root span is named "op.<workload>".
     * Passes with spans on also add to the counts layerMetrics()
     * reports.
     */
    virtual Pass run(double seconds, std::size_t minOps,
                     SpanRecorder &spans) = 0;

    /**
     * Add this workload's per-layer metrics from the attribution of
     * the traced passes' spans; workloads may also run extra probes of
     * a layer here (their root spans are named "probe.*").
     */
    virtual void layerMetrics(const Attribution &attribution,
                              SpanRecorder &spans, Metrics &out) = 0;

    /** Bring the system to the state it runs in for good, once after
     * the last set-up and outside its timing. */
    virtual void warmUp() {}

    /** Input sizes and other facts to record beside the result. */
    virtual lfm::support::Json context() const = 0;

    /** The fixed tail percentile reported as latency_tail_ms. */
    virtual double tailPercentile() const = 0;
};

/** Mean duration of the spans named `name` inside operations; 0 when
 * there are none. */
inline double
meanSpanMs(const Attribution &attribution, const std::string &name)
{
    const auto count = attribution.countByName.find(name);
    if (count == attribution.countByName.end() || count->second == 0)
        return 0.0;
    return attribution.totalMsByName.at(name) /
           static_cast<double>(count->second);
}

/** Summed duration, in seconds, of the spans named `name`. */
inline double
totalSpanSeconds(const Attribution &attribution, const std::string &name)
{
    const auto it = attribution.totalMsByName.find(name);
    return it == attribution.totalMsByName.end() ? 0.0 : it->second / 1e3;
}

std::unique_ptr<Workload> makeCampaign(const Options &options);
std::unique_ptr<Workload> makeImportBatch(const Options &options);
std::unique_ptr<Workload> makeServe(const Options &options);

} // namespace perf_e2e

#endif // PERF_E2E_BENCH_HH
