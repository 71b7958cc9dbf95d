/**
 * @file
 * The `serve` workload: uploads to the detection daemon. An in-process
 * serve::DetectionService sits behind serve::HttpServer on loopback,
 * configured the way `lfm_served --state-dir` configures it (a forked
 * sandbox per trace, an fsync'd journal, metrics on). A closed loop of
 * three client threads POSTs small seeded LFMC uploads (1-4 wide
 * traces of 256 events, each count equally often) to /detect with
 * serve::httpRequest and reads every streamed body to the end. The loop is closed because the
 * daemon's callers (CI jobs, `lfm_served --client`) wait for their
 * findings before the next upload.
 *
 * Fixed per-request and per-trace costs dominate: HTTP, one fork per
 * trace, the journal fsync. Detection does little, and on many tiny
 * traces rather than a few big ones, so a detector change that adds
 * per-trace set-up cost shows here. Nothing of the other workloads is
 * resident in this process: fork cost grows with the parent's
 * mappings.
 *
 * A request fails unless it returns 200, an X-LFM-Outcome of
 * "completed", and a body byte-equal to serve::detectDocumentForCorpus
 * for that upload (computed in set-up).
 */

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hh"
#include "detect/batch.hh"
#include "gen.hh"
#include "serve/http.hh"
#include "serve/service.hh"
#include "stats.hh"
#include "support/journal.hh"
#include "support/metrics.hh"
#include "support/random.hh"
#include "support/sandbox.hh"

namespace perf_e2e
{

namespace
{

namespace serve = lfm::serve;

constexpr unsigned kClients = 3;
constexpr std::size_t kUploads = 48;
constexpr int kProbeSamples = 20;
constexpr unsigned kRequestTimeoutSec = 60;

struct UploadCase
{
    Upload upload;
    std::string reference;  ///< detectDocumentForCorpus bytes
};

/** What the traced passes counted, for the per-layer metrics. */
struct Counts
{
    double traces = 0;
    double requestMs = 0;
    double requests = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t crashed = 0;
    std::uint64_t quarantined = 0;
};

std::uint64_t
counterValue(const char *name)
{
    return lfm::support::metrics::counter(name).value();
}

std::optional<lfm::trace::CorpusReader>
readerFor(const Upload &upload)
{
    return lfm::trace::CorpusReader::fromBuffer(upload.corpus.data(),
                                                upload.corpus.size());
}

class Serve final : public Workload
{
  public:
    explicit Serve(const Options &options)
        : options_(options), stateDir_(options.workDir + "/serve-state")
    {
        lfm::support::metrics::setEnabled(true);
    }

    ~Serve() override { stop(); }

    void
    setup() override
    {
        stop();
        uploads_.clear();
        // Every trace count from 1 to 4 equally often, so the seed moves
        // the contents and their order but not the amount of work.
        std::vector<unsigned> traceCounts;
        for (std::size_t i = 0; i < kUploads; ++i)
            traceCounts.push_back(1 + static_cast<unsigned>(i % 4));
        lfm::support::Rng rng(options_.seed);
        rng.shuffle(traceCounts);
        for (const unsigned traces : traceCounts) {
            UploadCase c;
            c.upload = generateUpload(rng.next(), traces);
            auto reader = readerFor(c.upload);
            if (!reader)
                throw std::runtime_error("generated upload does not open");
            c.reference = serve::detectDocumentForCorpus(pipeline_, *reader);
            uploads_.push_back(std::move(c));
        }

        std::filesystem::remove_all(stateDir_);
        std::filesystem::create_directories(stateDir_);
        serve::ServiceOptions service;
        service.sandbox.policy = lfm::support::SandboxPolicy::Fork;
        service.stateDir = stateDir_;
        service_ = std::make_unique<serve::DetectionService>(pipeline_,
                                                             service);
        service_->recover();
        serve::HttpServerOptions http;
        http.maxBodyBytes = service.maxBodyBytes;
        server_ = std::make_unique<serve::HttpServer>(
            [service = service_.get()](const serve::HttpRequest &req,
                                       serve::ResponseWriter &w) {
                service->handle(req, w);
            },
            http);
        std::string error;
        if (!server_->start(&error))
            throw std::runtime_error("cannot start server: " + error);
        const auto health = serve::httpRequest(server_->port(), "GET",
                                               "/healthz");
        if (!health.ok || health.status != 200)
            throw std::runtime_error("server is not healthy");
    }

    Pass
    run(double seconds, std::size_t minOps, SpanRecorder &spans) override
    {
        const auto statsBefore = service_->stats();
        const std::uint64_t crashedBefore =
            counterValue("serve.trace.crashed");
        const std::uint64_t quarantinedBefore =
            counterValue("serve.trace.quarantined");

        std::mutex m;
        Pass pass;
        std::atomic<std::size_t> completed{0};
        const auto start = Clock::now();
        auto client = [&](unsigned id) {
            Pass mine;
            Counts counts;
            for (std::size_t i = id;; i += kClients) {
                if (completed.load() >= minOps &&
                    msSince(start) >= seconds * 1e3)
                    break;
                const UploadCase &c = uploads_[i % uploads_.size()];
                ++mine.attempted;
                const auto opStart = Clock::now();
                const bool ok = request(c, id, spans);
                const double ms = msSince(opStart);
                if (ok) {
                    mine.latencyMs.push_back(ms);
                    mine.items += 1;
                    counts.traces += c.upload.traces;
                    counts.requestMs += ms;
                    counts.requests += 1;
                } else {
                    ++mine.failed;
                }
                ++completed;
            }
            std::lock_guard lk(m);
            pass.latencyMs.insert(pass.latencyMs.end(),
                                  mine.latencyMs.begin(),
                                  mine.latencyMs.end());
            pass.items += mine.items;
            pass.attempted += mine.attempted;
            pass.failed += mine.failed;
            if (spans.on()) {
                counts_.traces += counts.traces;
                counts_.requestMs += counts.requestMs;
                counts_.requests += counts.requests;
            }
        };
        std::vector<std::thread> clients;
        for (unsigned id = 0; id < kClients; ++id)
            clients.emplace_back(client, id);
        for (auto &t : clients)
            t.join();
        pass.wallSeconds = msSince(start) / 1e3;

        if (spans.on()) {
            const auto statsAfter = service_->stats();
            counts_.admitted += statsAfter.admitted - statsBefore.admitted;
            counts_.rejected += statsAfter.rejected - statsBefore.rejected;
            counts_.crashed +=
                counterValue("serve.trace.crashed") - crashedBefore;
            counts_.quarantined +=
                counterValue("serve.trace.quarantined") - quarantinedBefore;
        }
        return pass;
    }

    void
    layerMetrics(const Attribution &, SpanRecorder &spans,
                 Metrics &out) override
    {
        out["serve.admitted"].value = static_cast<double>(counts_.admitted);
        out["serve.rejected"].value = static_cast<double>(counts_.rejected);
        out["serve.traces"].value = counts_.traces;
        out["serve.trace_crashed"].value =
            static_cast<double>(counts_.crashed);
        out["serve.trace_quarantined"].value =
            static_cast<double>(counts_.quarantined);
        probeLayers(spans, out);
    }

    /** The daemon keeps its latest completed uploads (up to
     * maxCompletedCampaigns) resident, and fork cost grows with the
     * parent's mappings: fill that table so every pass sees the state
     * a long-running daemon is in. */
    void
    warmUp() override
    {
        SpanRecorder off(false);
        const Pass pass =
            run(0.0, serve::ServiceOptions{}.maxCompletedCampaigns, off);
        if (pass.failed != 0)
            throw std::runtime_error("serve warm-up requests failed");
    }

    lfm::support::Json
    context() const override
    {
        std::uint64_t traces = 0;
        std::uint64_t events = 0;
        std::uint64_t bytes = 0;
        for (const UploadCase &c : uploads_) {
            traces += c.upload.traces;
            events += c.upload.events;
            bytes += c.upload.corpus.size();
        }
        lfm::support::Json doc;
        doc.set("uploads", static_cast<std::uint64_t>(uploads_.size()))
            .set("traces", traces)
            .set("events", events)
            .set("corpus_bytes", bytes)
            .set("clients", kClients)
            .set("loop", "closed")
            .set("sandbox", "fork per trace")
            .set("journal_fsync", true)
            .set("operation", "one POST /detect, body read to the end")
            .set("throughput_item", "request");
        return doc;
    }

    double tailPercentile() const override { return 99.0; }

  private:
    void
    stop()
    {
        if (server_)
            server_->drain();
        server_.reset();
        service_.reset();
    }

    bool
    request(const UploadCase &c, unsigned client, SpanRecorder &spans)
    {
        const std::uint64_t op = ++nextOp_;
        serve::ClientResponse resp;
        {
            SpanScope root(&spans, "op.serve", op);
            SpanScope s(&spans, "serve.http_request", op, root.id());
            // One tenant per client: the service releases a request's
            // admission slot only after its response is on the wire, so
            // one tenant's closed loop can briefly hold a slot for the
            // request it just finished as well as the one it sends next.
            resp = serve::httpRequest(
                server_->port(), "POST", "/detect", c.upload.corpus,
                {{"X-LFM-Tenant", "client-" + std::to_string(client)}},
                kRequestTimeoutSec);
        }
        const std::string *outcome = resp.header("x-lfm-outcome");
        if (resp.ok && resp.status == 200 && outcome != nullptr &&
            *outcome == "completed" && resp.body == c.reference)
            return true;
        std::cerr << "perf_e2e: serve request " << op << " failed: "
                  << (resp.ok ? "status " + std::to_string(resp.status)
                              : "transport: " + resp.error)
                  << ", outcome "
                  << (outcome != nullptr ? *outcome : "(none)")
                  << ", body " << resp.body.size() << " bytes vs "
                  << c.reference.size() << " expected\n";
        return false;
    }

    /** Time single calls into each layer the request path crosses,
     * sequentially and without load. */
    void
    probeLayers(SpanRecorder &spans, Metrics &out)
    {
        const std::uint64_t op = ++nextOp_;
        SpanScope root(&spans, "probe.serve", op);

        std::vector<double> isolate;
        for (int i = 0; i < kProbeSamples; ++i) {
            SpanScope s(&spans, "support.isolate", op, root.id());
            const auto start = Clock::now();
            const auto result = lfm::support::runIsolated(
                {}, [] { return std::vector<std::uint8_t>{1}; });
            isolate.push_back(msSince(start));
            if (!result.ok)
                throw std::runtime_error("runIsolated probe failed");
        }
        const double isolateMs = median(isolate);
        out["support.isolate_ms"].value = isolateMs;
        if (counts_.requests > 0 && counts_.requestMs > 0)
            out["serve.isolate_share"].value =
                isolateMs * (counts_.traces / counts_.requests) /
                (counts_.requestMs / counts_.requests);

        std::vector<double> append;
        {
            lfm::support::Journal journal;
            const std::string path = options_.workDir + "/probe.lfmj";
            if (!journal.open(path, true))
                throw std::runtime_error("cannot open probe journal");
            for (int i = 0; i < kProbeSamples; ++i) {
                const Upload &u = uploads_[i % uploads_.size()].upload;
                const std::string image(u.corpus.size() / u.traces, 'x');
                SpanScope s(&spans, "support.journal_append", op, root.id());
                const auto start = Clock::now();
                if (!journal.append(2, image.data(), image.size()))
                    throw std::runtime_error("probe journal append failed");
                append.push_back(msSince(start));
            }
        }
        out["support.journal_append_ms"].value = median(append);

        std::vector<double> rtt;
        for (int i = 0; i < kProbeSamples; ++i) {
            SpanScope s(&spans, "serve.healthz", op, root.id());
            const auto start = Clock::now();
            serve::httpRequest(server_->port(), "GET", "/healthz");
            rtt.push_back(msSince(start));
        }
        out["serve.http_rtt_ms"].value = median(rtt);

        std::vector<double> handled;
        std::vector<double> requested;
        std::vector<double> pipelinePerTrace;
        std::vector<double> batch, json, sarif, jsonBytes, sarifBytes,
            findings;
        for (const UploadCase &c : uploads_) {
            handled.push_back(handleOverSocketpair(c, spans, op, root.id()));
            {
                SpanScope s(&spans, "serve.http_request", op, root.id());
                const auto start = Clock::now();
                serve::httpRequest(server_->port(), "POST", "/detect",
                                   c.upload.corpus);
                requested.push_back(msSince(start));
            }
            auto reader = readerFor(c.upload);
            for (std::size_t t = 0; t < reader->traceCount(); ++t) {
                const auto view = reader->viewAt(t);
                SpanScope s(&spans, "detect.pipeline", op, root.id());
                const auto start = Clock::now();
                pipeline_.run(lfm::detect::TraceSource(*view));
                pipelinePerTrace.push_back(msSince(start));
            }
            std::vector<lfm::detect::TraceReport> reports;
            {
                SpanScope s(&spans, "detect.batch", op, root.id());
                const auto start = Clock::now();
                reports = lfm::detect::BatchRunner(1).run(pipeline_, *reader);
                batch.push_back(msSince(start));
            }
            double found = 0;
            for (const auto &r : reports)
                found += static_cast<double>(r.findings.size());
            findings.push_back(found);
            {
                SpanScope s(&spans, "detect.emit_json", op, root.id());
                const auto start = Clock::now();
                const std::string doc =
                    lfm::detect::reportsJson(*reader, reports).str();
                json.push_back(msSince(start));
                jsonBytes.push_back(static_cast<double>(doc.size()));
            }
            {
                SpanScope s(&spans, "detect.emit_sarif", op, root.id());
                const auto start = Clock::now();
                const std::string doc =
                    lfm::detect::reportsSarif(*reader, reports).str();
                sarif.push_back(msSince(start));
                sarifBytes.push_back(static_cast<double>(doc.size()));
            }
        }
        out["serve.handle_ms"].value = median(handled);
        out["serve.http_overhead_ms"].value =
            median(requested) - median(handled);
        out["detect.pipeline_ms_per_trace"].value = mean(pipelinePerTrace);
        out["detect.batch_ms"].value = mean(batch);
        out["detect.findings"].value = mean(findings);
        out["detect.emit_json_ms"].value = mean(json);
        out["detect.emit_json_bytes"].value = mean(jsonBytes);
        out["detect.emit_sarif_ms"].value = mean(sarif);
        out["detect.emit_sarif_bytes"].value = mean(sarifBytes);
    }

    /** DetectionService::handle for one upload, its response written to
     * a socketpair that a helper thread drains. */
    double
    handleOverSocketpair(const UploadCase &c, SpanRecorder &spans,
                         std::uint64_t op, int parent)
    {
        int fds[2] = {-1, -1};
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw std::runtime_error("socketpair failed");
        std::thread drain([fd = fds[1]] {
            char buf[65536];
            while (::read(fd, buf, sizeof buf) > 0) {
            }
        });
        serve::HttpRequest req;
        req.method = "POST";
        req.target = "/detect";
        req.path = "/detect";
        req.body = c.upload.corpus;
        double ms = 0;
        std::exception_ptr error;
        try {
            serve::ResponseWriter writer(fds[0]);
            SpanScope s(&spans, "serve.handle", op, parent);
            const auto start = Clock::now();
            service_->handle(req, writer);
            ms = msSince(start);
        } catch (...) {
            error = std::current_exception();
        }
        // Closing our end ends the drain thread's read loop.
        ::close(fds[0]);
        drain.join();
        ::close(fds[1]);
        if (error)
            std::rethrow_exception(error);
        return ms;
    }

    Options options_;
    std::string stateDir_;
    lfm::detect::Pipeline pipeline_;
    std::vector<UploadCase> uploads_;
    std::unique_ptr<serve::DetectionService> service_;
    std::unique_ptr<serve::HttpServer> server_;
    std::atomic<std::uint64_t> nextOp_{0};
    Counts counts_;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Options &options)
{
    return std::make_unique<Serve>(options);
}

} // namespace perf_e2e
