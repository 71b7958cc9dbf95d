/**
 * @file
 * perf_e2e: one end-to-end run of one lfm user path.
 *
 *     perf_e2e --workload campaign|import_batch|serve --seed N
 *              --seconds S --trace 0|1 --work-dir DIR --out FILE
 *              [--chrome-trace FILE]
 *
 * Sets the workload up several times (set-up time is their median),
 * measures it for S seconds, and writes one JSON document to FILE:
 * pass/fail counts, the end-to-end metrics (--trace 0) or the
 * per-layer metrics (--trace 1), and the run's context (input sizes,
 * sample counts, host calibration). Throughput and latency percentiles
 * are over all operations of the measured passes. With --trace 1 the
 * run alternates untraced and traced passes, S/2 seconds of each, so
 * the tracing overhead is their difference, and the spans go to
 * --chrome-trace.
 * run.py builds this binary and prints the document's summary line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hh"
#include "calibrate.hh"
#include "stats.hh"

namespace
{

using namespace perf_e2e;
using lfm::support::Json;

constexpr int kSetupRepetitions = 5;
constexpr int kTraceRounds = 4;

/** Every per-layer metric name with its unit; a workload that does not
 * reach a layer reports it as 0. */
const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units =
        [] {
            std::vector<std::pair<std::string, std::string>> u = {
                {"explore.stress_ms", "ms"},
                {"explore.shard_overhead_ms", "ms"},
                {"explore.seeds", "count"},
                {"explore.manifested", "count"},
                {"explore.manifest_ratio", "ratio"},
                {"explore.truncated_runs", "count"},
                {"explore.shard_retries", "count"},
                {"sim.steps", "count"},
                {"sim.stress_steps_per_s", "1/s"},
                {"sim.replay_ms", "ms"},
                {"sim.replay_steps_per_s", "1/s"},
                {"trace.import_ms", "ms"},
                {"trace.import_lines_per_s", "1/s"},
                {"trace.quarantined_lines", "count"},
                {"trace.stalled_records", "count"},
                {"trace.encode_ms", "ms"},
                {"trace.corpus_open_ms", "ms"},
            };
            for (const char *shape : {"hot", "wide"}) {
                u.emplace_back(std::string("detect.context_ms.") + shape,
                               "ms");
                for (const char *d :
                     {"hb-race", "lockset", "atomicity", "predictive-atom",
                      "multivar", "order", "lock-order"})
                    u.emplace_back(std::string("detect.") + d + "_ms." +
                                       shape,
                                   "ms");
            }
            const std::vector<std::pair<std::string, std::string>> rest = {
                {"detect.batch_ms", "ms"},
                {"detect.findings", "count"},
                {"detect.emit_json_ms", "ms"},
                {"detect.emit_json_bytes", "B"},
                {"detect.emit_sarif_ms", "ms"},
                {"detect.emit_sarif_bytes", "B"},
                {"detect.pipeline_ms_per_trace", "ms"},
                {"support.isolate_ms", "ms"},
                {"support.journal_append_ms", "ms"},
                {"serve.isolate_share", "ratio"},
                {"serve.http_rtt_ms", "ms"},
                {"serve.handle_ms", "ms"},
                {"serve.http_overhead_ms", "ms"},
                {"serve.admitted", "count"},
                {"serve.rejected", "count"},
                {"serve.traces", "count"},
                {"serve.trace_crashed", "count"},
                {"serve.trace_quarantined", "count"},
                {"self_ms.bench", "ms"},
                {"self_ms.sim", "ms"},
                {"self_ms.explore", "ms"},
                {"self_ms.trace", "ms"},
                {"self_ms.detect", "ms"},
                {"self_ms.serve", "ms"},
                {"bench.span_coverage_min", "ratio"},
                {"bench.ops_under_covered", "count"},
                {"bench.tracing_overhead_pct", "%"},
            };
            u.insert(u.end(), rest.begin(), rest.end());
            return u;
        }();
    return units;
}

int
usage()
{
    std::cerr << "usage: perf_e2e --workload campaign|import_batch|serve "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--out FILE [--chrome-trace FILE]\n";
    return 2;
}

double
peakRssMb()
{
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void
merge(Pass &into, const Pass &pass)
{
    into.latencyMs.insert(into.latencyMs.end(), pass.latencyMs.begin(),
                          pass.latencyMs.end());
    into.wallSeconds += pass.wallSeconds;
    into.items += pass.items;
    into.attempted += pass.attempted;
    into.failed += pass.failed;
}

/** Items per wall second. */
double
throughput(const Pass &pass)
{
    return pass.wallSeconds > 0.0 ? pass.items / pass.wallSeconds : 0.0;
}

Json
passJson(const Pass &pass, double tail)
{
    Json doc;
    doc.set("operations", static_cast<std::uint64_t>(pass.latencyMs.size()))
        .set("items", pass.items)
        .set("wall_s", pass.wallSeconds)
        .set("throughput_per_s", throughput(pass))
        .set("latency_p50_ms", percentile(pass.latencyMs, 50))
        .set("latency_tail_ms", percentile(pass.latencyMs, tail))
        .set("tail_percentile", tail)
        .set("samples_beyond_tail",
             static_cast<std::uint64_t>(
                 samplesBeyond(pass.latencyMs.size(), tail)))
        .set("highest_percentile_with_10_beyond",
             highestPercentile(pass.latencyMs.size()))
        .set("attempted", static_cast<std::uint64_t>(pass.attempted))
        .set("failed", static_cast<std::uint64_t>(pass.failed))
        .set("error_rate",
             pass.attempted == 0
                 ? 0.0
                 : static_cast<double>(pass.failed) /
                       static_cast<double>(pass.attempted));
    return doc;
}

Json
metricsJson(const Metrics &metrics)
{
    Json doc;
    for (const auto &[name, metric] : metrics) {
        Json m;
        m.set("value", metric.value).set("unit", metric.unit);
        doc.set(name, std::move(m));
    }
    return doc;
}

bool
writeDoc(const std::string &path, const Json &doc)
{
    std::ofstream out(path);
    out << std::setprecision(17);
    doc.dump(out);
    out << "\n";
    return static_cast<bool>(out);
}

/** Set up, measure and write the result document; throws on a
 * set-up or I/O failure. */
int
measure(const Options &options, const std::string &outPath,
        const std::string &chromePath)
{
    std::unique_ptr<Workload> workload;
    if (options.workload == "campaign")
        workload = makeCampaign(options);
    else if (options.workload == "import_batch")
        workload = makeImportBatch(options);
    else if (options.workload == "serve")
        workload = makeServe(options);
    else
        return usage();

    std::filesystem::remove_all(options.workDir);
    std::filesystem::create_directories(options.workDir);

    const CpuTimes cpuBefore = readCpuTimes();
    const Json spinBefore = sampleSpin();

    std::vector<double> setupSeconds;
    for (int i = 0; i < kSetupRepetitions; ++i) {
        const auto start = Clock::now();
        workload->setup();
        setupSeconds.push_back(msSince(start) / 1e3);
    }
    workload->warmUp();

    const double tail = workload->tailPercentile();
    Json doc;
    Pass untraced;
    Metrics metrics;
    SpanRecorder off(false);
    if (!options.trace) {
        untraced = workload->run(options.seconds, samplesNeeded(tail), off);
        metrics["setup_s"] = {median(setupSeconds), "s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        metrics["throughput_per_s"] = {throughput(untraced), "1/s"};
        metrics["latency_p50_ms"] = {percentile(untraced.latencyMs, 50),
                                     "ms"};
        metrics["latency_tail_ms"] = {percentile(untraced.latencyMs, tail),
                                      "ms"};
        doc.set("attempted", static_cast<std::uint64_t>(untraced.attempted))
            .set("failed", static_cast<std::uint64_t>(untraced.failed));
    } else {
        // Untraced and traced passes alternate, in the order
        // U T T U U T T U, so drift of the host or of the system's
        // state falls on both sides of the tracing overhead alike.
        SpanRecorder spans(true);
        Pass traced;
        const double passSeconds = options.seconds / (2 * kTraceRounds);
        for (int round = 0; round < kTraceRounds; ++round) {
            const bool tracedFirst = round % 2 == 1;
            for (const bool on : {tracedFirst, !tracedFirst}) {
                if (on)
                    merge(traced, workload->run(passSeconds, 1, spans));
                else
                    merge(untraced, workload->run(passSeconds, 1, off));
            }
        }
        const Attribution attribution =
            attribute(spans.snapshot(), "op.");
        for (const auto &[name, unit] : layerMetricUnits())
            metrics[name] = {0.0, unit};
        const double ops = std::max<double>(1.0, attribution.ops);
        for (const auto &[layer, ms] : attribution.selfMsByLayer)
            if (metrics.count("self_ms." + layer) != 0)
                metrics["self_ms." + layer].value = ms / ops;
        metrics["bench.span_coverage_min"].value = attribution.minCoverage;
        metrics["bench.ops_under_covered"].value =
            static_cast<double>(attribution.opsUnderCovered);
        const double base = throughput(untraced);
        metrics["bench.tracing_overhead_pct"].value =
            base > 0.0 ? (base - throughput(traced)) / base * 100.0 : 0.0;
        workload->layerMetrics(attribution, spans, metrics);
        if (!chromePath.empty() && !writeDoc(chromePath, spans.chromeTrace()))
            std::cerr << "perf_e2e: cannot write " << chromePath << "\n";
        doc.set("traced_pass", passJson(traced, tail));
        doc.set("attempted",
                static_cast<std::uint64_t>(untraced.attempted +
                                           traced.attempted))
            .set("failed", static_cast<std::uint64_t>(untraced.failed +
                                                      traced.failed));
    }

    const Json spinAfter = sampleSpin();
    const CpuTimes cpuAfter = readCpuTimes();

    Json setupDoc = Json::array();
    for (const double s : setupSeconds)
        setupDoc.push(s);
    Json calibration;
    calibration.set("before", spinBefore)
        .set("after", spinAfter)
        .set("steal_share", stealShare(cpuBefore, cpuAfter))
        .set("hardware_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

    doc.set("workload", options.workload)
        .set("seed", options.seed)
        .set("seconds", options.seconds)
        .set("trace", options.trace)
        .set("metrics", metricsJson(metrics))
        .set("untraced_pass", passJson(untraced, tail))
        .set("setup_runs_s", std::move(setupDoc))
        .set("peak_rss_mb", peakRssMb())
        .set("inputs", workload->context())
        .set("calibration", std::move(calibration));
    workload.reset();
    std::filesystem::remove_all(options.workDir);

    if (!writeDoc(outPath, doc)) {
        std::cerr << "perf_e2e: cannot write " << outPath << "\n";
        return 2;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string outPath;
    std::string chromePath;
    int traceFlag = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            traceFlag = value == "1" ? 1 : value == "0" ? 0 : -1;
        else if (arg == "--work-dir")
            options.workDir = value;
        else if (arg == "--out")
            outPath = value;
        else if (arg == "--chrome-trace")
            chromePath = value;
        else
            return usage();
    }
    if (traceFlag < 0 || options.seconds <= 0.0 || outPath.empty() ||
        options.workDir.empty())
        return usage();
    options.trace = traceFlag == 1;

    // A client or server socket whose peer went away must not kill the
    // run; the HTTP layer reports the broken write instead.
    std::signal(SIGPIPE, SIG_IGN);

    try {
        return measure(options, outPath, chromePath);
    } catch (const std::exception &e) {
        std::cerr << "perf_e2e: " << e.what() << "\n";
        return 2;
    }
}
