/**
 * @file
 * The `campaign` workload: what `lfm_campaign --findings` does for
 * every registry kernel. One operation is one kernel's buggy variant
 * run through explore::shardedStress with the CLI's defaults (one
 * shard, an fsync'd journal in a fresh state directory,
 * maxDecisions 4000), then the findings document built from the
 * manifesting seeds: replay, batch detection, JSON. The executor does
 * nearly all the work; detection almost none.
 *
 * The reference findings come from the in-process classic engine
 * (ParallelRunner(1)) over the same seeds, computed in set-up; an
 * operation fails when its document differs or the campaign was cut
 * or abandoned seeds.
 */

#include <filesystem>

#include "bench.hh"
#include "bugs/registry.hh"
#include "explore/campaign_findings.hh"
#include "explore/sharded.hh"
#include "sim/policy.hh"
#include "stats.hh"

namespace perf_e2e
{

namespace
{

namespace explore = lfm::explore;

/** Seeds per kernel campaign. The replayed traces of one kernel's
 * manifesting seeds are resident together, so more seeds make peak
 * memory depend on which seeds manifest; 100 keeps it steady, and four
 * passes over the registry — the fewest that give its p90 ten samples
 * beyond it — fit in one run. */
constexpr std::size_t kSeedsPerKernel = 100;
constexpr std::uint64_t kMaxDecisions = 4000;

struct KernelCase
{
    const lfm::bugs::BugKernel *kernel = nullptr;
    std::string findings;                ///< reference document
    std::vector<double> inProcessMs;     ///< classic stress, per set-up
    std::size_t manifested = 0;
};

/** What the traced passes counted, for the per-layer metrics. */
struct Counts
{
    double seeds = 0;
    double manifested = 0;
    double truncated = 0;
    double shardRetries = 0;
    double steps = 0;
    double replayEvents = 0;
    double findings = 0;
    double jsonBytes = 0;
    double inProcessMs = 0;
};

class Campaign final : public Workload
{
  public:
    explicit Campaign(const Options &options)
        : options_(options), stateDir_(options.workDir + "/state"),
          policy_(explore::makePolicy<lfm::sim::RandomPolicy>())
    {
        for (const auto *kernel : lfm::bugs::allKernels())
            cases_.push_back({kernel, {}, {}, 0});
    }

    void
    setup() override
    {
        std::filesystem::remove_all(stateDir_);
        std::filesystem::create_directories(stateDir_);
        const explore::StressOptions stress = stressOptions();
        for (KernelCase &c : cases_) {
            const auto factory = c.kernel->factory(lfm::bugs::Variant::Buggy);
            const auto start = Clock::now();
            const explore::StressResult result =
                explore::ParallelRunner(1).stress(factory, policy_, stress);
            c.inProcessMs.push_back(msSince(start));
            c.manifested = result.manifestations;
            c.findings = explore::campaignFindingsJson(factory, policy_,
                                                       stress, result)
                             .str();
        }
    }

    Pass
    run(double seconds, std::size_t minOps, SpanRecorder &spans) override
    {
        Pass pass;
        const explore::StressOptions stress = stressOptions();
        CyclePacer pacer(cases_.size(), seconds, minOps);
        for (std::size_t i = 0; pacer.next(i, pass); ++i) {
            const KernelCase &c = cases_[i % cases_.size()];
            const std::uint64_t op = ++nextOp_;
            ++pass.attempted;
            std::size_t seeds = 0;
            const auto opStart = Clock::now();
            const bool ok = runOne(c, stress, op, spans, seeds);
            const double ms = msSince(opStart);
            if (ok) {
                pass.latencyMs.push_back(ms);
                pass.items += static_cast<double>(seeds);
            } else {
                ++pass.failed;
            }
            if (spans.on())
                counts_.inProcessMs += median(c.inProcessMs);
            // A fresh state directory per campaign, outside the timing.
            std::filesystem::remove_all(stateDir_);
            std::filesystem::create_directories(stateDir_);
        }
        return pass;
    }

    void
    layerMetrics(const Attribution &attribution, SpanRecorder &,
                 Metrics &out) override
    {
        const double ops = std::max<double>(1.0, attribution.ops);
        const double stressMs =
            meanSpanMs(attribution, "explore.sharded_stress");
        out["explore.stress_ms"].value = stressMs;
        out["explore.shard_overhead_ms"].value =
            stressMs - counts_.inProcessMs / ops;
        out["explore.seeds"].value = counts_.seeds;
        out["explore.manifested"].value = counts_.manifested;
        out["explore.manifest_ratio"].value =
            counts_.seeds > 0 ? counts_.manifested / counts_.seeds : 0.0;
        out["explore.truncated_runs"].value = counts_.truncated;
        out["explore.shard_retries"].value = counts_.shardRetries;
        out["sim.steps"].value = counts_.steps;
        const double stressS =
            totalSpanSeconds(attribution, "explore.sharded_stress");
        out["sim.stress_steps_per_s"].value =
            stressS > 0 ? counts_.steps / stressS : 0.0;
        out["sim.replay_ms"].value = meanSpanMs(attribution, "sim.replay");
        const double replayS = totalSpanSeconds(attribution, "sim.replay");
        out["sim.replay_steps_per_s"].value =
            replayS > 0 ? counts_.replayEvents / replayS : 0.0;
        out["detect.batch_ms"].value = meanSpanMs(attribution, "detect.batch");
        out["detect.findings"].value = counts_.findings / ops;
        out["detect.emit_json_ms"].value =
            meanSpanMs(attribution, "detect.emit_json");
        out["detect.emit_json_bytes"].value = counts_.jsonBytes / ops;
    }

    lfm::support::Json
    context() const override
    {
        std::size_t manifested = 0;
        for (const KernelCase &c : cases_)
            manifested += c.manifested;
        lfm::support::Json doc;
        doc.set("kernels", static_cast<std::uint64_t>(cases_.size()))
            .set("seeds_per_kernel",
                 static_cast<std::uint64_t>(kSeedsPerKernel))
            .set("first_seed", firstSeed())
            .set("max_decisions", kMaxDecisions)
            .set("manifested_seeds_per_pass",
                 static_cast<std::uint64_t>(manifested))
            .set("operation", "one kernel: sharded stress + findings")
            .set("throughput_item", "seed");
        return doc;
    }

    double tailPercentile() const override { return 90.0; }

  private:
    std::uint64_t
    firstSeed() const
    {
        return options_.seed * kSeedsPerKernel;
    }

    explore::StressOptions
    stressOptions() const
    {
        explore::StressOptions stress;
        stress.runs = kSeedsPerKernel;
        stress.firstSeed = firstSeed();
        stress.exec.maxDecisions = kMaxDecisions;
        return stress;
    }

    bool
    runOne(const KernelCase &c, const explore::StressOptions &stress,
           std::uint64_t op, SpanRecorder &spans, std::size_t &seeds)
    {
        try {
            const auto factory = c.kernel->factory(lfm::bugs::Variant::Buggy);
            explore::ShardedOptions sharded;
            sharded.stateDir = stateDir_;
            sharded.campaignName = c.kernel->info().id;
            explore::ShardedStats stats;
            std::string doc;
            explore::StressResult result;
            std::vector<lfm::trace::Trace> traces;
            double findings = 0;
            {
                SpanScope root(&spans, "op.campaign", op);
                {
                    SpanScope s(&spans, "explore.sharded_stress", op,
                                root.id());
                    result = explore::shardedStress(
                        factory, policy_, stress, sharded,
                        explore::defaultManifest, &stats);
                }
                {
                    SpanScope s(&spans, "sim.replay", op, root.id());
                    traces = explore::replayManifestedSeeds(
                        factory, policy_, stress, result);
                }
                std::vector<lfm::detect::TraceReport> reports;
                {
                    SpanScope s(&spans, "detect.batch", op, root.id());
                    lfm::detect::Pipeline pipeline;
                    reports =
                        lfm::detect::BatchRunner(1).run(pipeline, traces);
                }
                {
                    SpanScope s(&spans, "detect.emit_json", op, root.id());
                    doc = lfm::detect::reportsJson(traces, reports).str();
                }
                for (const auto &report : reports)
                    findings += static_cast<double>(report.findings.size());
            }
            seeds = result.runs;
            const bool cut =
                result.outcome != lfm::support::RunOutcome::Completed &&
                result.outcome != lfm::support::RunOutcome::Crashed;
            const bool ok =
                !cut && stats.abandonedSeeds == 0 && doc == c.findings;
            if (!spans.on())
                return ok;
            for (const auto &t : traces)
                counts_.replayEvents += static_cast<double>(t.size());
            counts_.findings += findings;
            counts_.jsonBytes += static_cast<double>(doc.size());
            counts_.seeds += static_cast<double>(result.runs);
            counts_.manifested += static_cast<double>(result.manifestations);
            counts_.truncated += static_cast<double>(result.truncatedRuns);
            counts_.shardRetries += static_cast<double>(stats.shardRetries);
            counts_.steps +=
                result.avgDecisions * static_cast<double>(result.runs);
            return ok;
        } catch (const std::exception &) {
            return false;
        }
    }

    Options options_;
    std::string stateDir_;
    explore::PolicyFactory policy_;
    std::vector<KernelCase> cases_;
    Counts counts_;
    std::uint64_t nextOp_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCampaign(const Options &options)
{
    return std::make_unique<Campaign>(options);
}

} // namespace perf_e2e
