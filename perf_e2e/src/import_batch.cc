/**
 * @file
 * The `import_batch` workload: what `lfm_import` followed by a batch
 * detection run does for a recorded pthread log. One operation is one
 * seeded raw log through trace::replay::importLogText,
 * trace::CorpusWriter, trace::CorpusReader, detect::BatchRunner(1) and
 * both emitters (findings JSON and SARIF, serialized).
 *
 * The logs come in two shapes that load different detectors: *hot*
 * (4 threads, ~70% of the accesses on one variable) and *wide*
 * (8 threads, 64 variables, uniform). Five of every eight logs are
 * hot, so the median operation is a hot log and the 75th percentile a
 * wide one, each well inside its own mode; sixteen distinct logs keep
 * one log's content from setting either. Import, detection and emit
 * all weigh here.
 *
 * Set-up runs every log once; those documents are the reference each
 * later repetition must reproduce byte for byte, and an import that
 * quarantines a line or stalls a record fails the operation.
 */

#include <array>
#include <map>
#include <optional>

#include "bench.hh"
#include "detect/batch.hh"
#include "detect/context.hh"
#include "gen.hh"
#include "support/random.hh"
#include "trace/corpus.hh"
#include "trace/replay.hh"

namespace perf_e2e
{

namespace
{

namespace detect = lfm::detect;

constexpr std::size_t kRecordsPerLog = 8192;
constexpr std::array<bool, 16> kHotPattern = {
    true, false, true, true, false, true, false, true,
    true, false, true, true, false, true, false, true};
constexpr int kProbeRepetitions = 2;

struct LogCase
{
    bool hot = true;
    std::string text;
    std::string json;   ///< reference documents
    std::string sarif;
    lfm::trace::Trace trace;  ///< imported once, for the detector probe
    std::size_t events = 0;
};

/** What the traced passes counted, for the per-layer metrics. */
struct Counts
{
    double lines = 0;
    double quarantined = 0;
    double stalled = 0;
    double findings = 0;
    double jsonBytes = 0;
    double sarifBytes = 0;
};

/** Everything one operation produces. */
struct Output
{
    bool clean = false;
    lfm::trace::replay::ImportStats stats;
    std::string json;
    std::string sarif;
    std::size_t findings = 0;
};

class ImportBatch final : public Workload
{
  public:
    explicit ImportBatch(const Options &options) : options_(options) {}

    void
    setup() override
    {
        logs_.clear();
        lfm::support::Rng rng(options_.seed);
        SpanRecorder off(false);
        for (const bool hot : kHotPattern) {
            LogCase c;
            c.hot = hot;
            c.text = generateLog(hot ? hotShape(kRecordsPerLog)
                                     : wideShape(kRecordsPerLog),
                                 rng.next());
            const Output out = process(c.text, 0, off);
            c.json = out.json;
            c.sarif = out.sarif;
            c.events = out.stats.events;
            c.trace =
                lfm::trace::replay::importLogText(c.text, "log").trace;
            logs_.push_back(std::move(c));
        }
    }

    Pass
    run(double seconds, std::size_t minOps, SpanRecorder &spans) override
    {
        Pass pass;
        CyclePacer pacer(logs_.size(), seconds, minOps);
        for (std::size_t i = 0; pacer.next(i, pass); ++i) {
            const LogCase &c = logs_[i % logs_.size()];
            ++pass.attempted;
            const auto opStart = Clock::now();
            const Output out = process(c.text, ++nextOp_, spans);
            const double ms = msSince(opStart);
            if (spans.on())
                count(out);
            if (out.clean && out.json == c.json && out.sarif == c.sarif) {
                pass.latencyMs.push_back(ms);
                pass.items += static_cast<double>(out.stats.events);
            } else {
                ++pass.failed;
            }
        }
        return pass;
    }

    void
    layerMetrics(const Attribution &attribution, SpanRecorder &spans,
                 Metrics &out) override
    {
        const double ops = std::max<double>(1.0, attribution.ops);
        out["trace.import_ms"].value = meanSpanMs(attribution, "trace.import");
        const double importS = totalSpanSeconds(attribution, "trace.import");
        out["trace.import_lines_per_s"].value =
            importS > 0 ? counts_.lines / importS : 0.0;
        out["trace.quarantined_lines"].value = counts_.quarantined;
        out["trace.stalled_records"].value = counts_.stalled;
        out["trace.encode_ms"].value = meanSpanMs(attribution, "trace.encode");
        out["trace.corpus_open_ms"].value =
            meanSpanMs(attribution, "trace.corpus_open");
        out["detect.batch_ms"].value = meanSpanMs(attribution, "detect.batch");
        out["detect.findings"].value = counts_.findings / ops;
        out["detect.emit_json_ms"].value =
            meanSpanMs(attribution, "detect.emit_json");
        out["detect.emit_json_bytes"].value = counts_.jsonBytes / ops;
        out["detect.emit_sarif_ms"].value =
            meanSpanMs(attribution, "detect.emit_sarif");
        out["detect.emit_sarif_bytes"].value = counts_.sarifBytes / ops;
        probeDetectors(spans, out);
    }

    lfm::support::Json
    context() const override
    {
        lfm::support::Json perLog = lfm::support::Json::array();
        std::uint64_t events = 0;
        for (const LogCase &c : logs_) {
            lfm::support::Json row;
            row.set("shape", c.hot ? "hot" : "wide")
                .set("bytes", static_cast<std::uint64_t>(c.text.size()))
                .set("events", static_cast<std::uint64_t>(c.events))
                .set("json_bytes", static_cast<std::uint64_t>(c.json.size()))
                .set("sarif_bytes",
                     static_cast<std::uint64_t>(c.sarif.size()));
            perLog.push(std::move(row));
            events += c.events;
        }
        lfm::support::Json doc;
        doc.set("logs", std::move(perLog))
            .set("records_per_log", static_cast<std::uint64_t>(kRecordsPerLog))
            .set("events_per_cycle", events)
            .set("operation", "one log: import + corpus + batch + JSON + SARIF")
            .set("throughput_item", "log event");
        return doc;
    }

    double tailPercentile() const override { return 75.0; }

  private:
    void
    count(const Output &out)
    {
        counts_.lines += static_cast<double>(out.stats.lines);
        counts_.quarantined += static_cast<double>(out.stats.quarantined);
        counts_.stalled += static_cast<double>(out.stats.stalled);
        counts_.findings += static_cast<double>(out.findings);
        counts_.jsonBytes += static_cast<double>(out.json.size());
        counts_.sarifBytes += static_cast<double>(out.sarif.size());
    }

    Output
    process(const std::string &text, std::uint64_t op, SpanRecorder &spans)
    {
        Output out;
        try {
            SpanScope root(&spans, "op.import_batch", op);
            lfm::trace::replay::ImportResult imported;
            {
                SpanScope s(&spans, "trace.import", op, root.id());
                imported = lfm::trace::replay::importLogText(text, "log");
            }
            out.stats = imported.stats;
            std::string corpus;
            {
                SpanScope s(&spans, "trace.encode", op, root.id());
                lfm::trace::CorpusWriter writer;
                writer.add(imported.trace);
                corpus = writer.encode();
            }
            std::optional<lfm::trace::CorpusReader> reader;
            {
                SpanScope s(&spans, "trace.corpus_open", op, root.id());
                reader = lfm::trace::CorpusReader::fromBuffer(corpus.data(),
                                                              corpus.size());
            }
            if (!reader)
                return out;
            std::vector<detect::TraceReport> reports;
            {
                SpanScope s(&spans, "detect.batch", op, root.id());
                reports = detect::BatchRunner(1).run(pipeline_, *reader);
            }
            {
                SpanScope s(&spans, "detect.emit_json", op, root.id());
                out.json = detect::reportsJson(*reader, reports).str();
            }
            {
                SpanScope s(&spans, "detect.emit_sarif", op, root.id());
                out.sarif = detect::reportsSarif(*reader, reports).str();
            }
            for (const auto &report : reports)
                out.findings += report.findings.size();
            out.clean = imported.ok && imported.stats.quarantined == 0 &&
                        imported.stats.stalled == 0;
        } catch (const std::exception &) {
            out.clean = false;
        }
        return out;
    }

    /** Each detector over one shared AnalysisContext, per log shape. */
    void
    probeDetectors(SpanRecorder &spans, Metrics &out)
    {
        const auto detectors = detect::allDetectors();
        std::map<std::string, double> totalMs;
        std::map<std::string, double> samples;
        for (int rep = 0; rep < kProbeRepetitions; ++rep) {
            for (const LogCase &c : logs_) {
                const std::string shape = c.hot ? "hot" : "wide";
                const std::uint64_t op = ++nextOp_;
                SpanScope root(&spans, "probe.detectors." + shape, op);
                auto start = Clock::now();
                std::optional<detect::AnalysisContext> ctx;
                {
                    SpanScope s(&spans, "detect.context", op, root.id());
                    ctx.emplace(detect::TraceSource(c.trace),
                                pipeline_.wantsHb());
                }
                totalMs["detect.context_ms." + shape] += msSince(start);
                for (const auto &d : detectors) {
                    const std::string name = d->name();
                    SpanScope s(&spans, "detect." + name, op, root.id());
                    start = Clock::now();
                    const auto findings = d->fromContext(*ctx);
                    totalMs["detect." + name + "_ms." + shape] +=
                        msSince(start);
                }
                samples[shape] += 1;
            }
        }
        for (const auto &[name, ms] : totalMs) {
            const std::string shape = name.substr(name.rfind('.') + 1);
            out[name].value = ms / samples[shape];
        }
    }

    Options options_;
    detect::Pipeline pipeline_;
    std::vector<LogCase> logs_;
    Counts counts_;
    std::uint64_t nextOp_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeImportBatch(const Options &options)
{
    return std::make_unique<ImportBatch>(options);
}

} // namespace perf_e2e
