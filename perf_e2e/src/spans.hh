/**
 * @file
 * The benchmark's span recorder.
 *
 * Spans are recorded only by the benchmark's own files, around each
 * call into a layer's public API; spans inside the program are not
 * this recorder's job. Every span carries its name ("<layer>.<call>"),
 * start, end, the span that caused it, and the id of the operation
 * (one campaign, log or request) it belongs to. Spans stay in memory
 * and are written out once, as Chrome-trace JSON, when the run ends.
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover; an operation whose children cover
 * less than 95% of it has time no layer accounts for.
 */

#ifndef PERF_E2E_SPANS_HH
#define PERF_E2E_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hh"

namespace perf_e2e
{

/** One closed (or still open: endNs < 0) span. */
struct Span
{
    std::string name;
    std::uint64_t op = 0;
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;
    unsigned tid = 0;
};

/** Thread-safe in-memory span store. Off, it records nothing. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool on);

    bool on() const { return on_; }

    /** Open a span and return its id; -1 while off. */
    int open(std::string name, std::uint64_t op, int parent);

    /** Close the span opened as id (ignores -1). */
    void close(int id);

    /** A copy of every span recorded so far. */
    std::vector<Span> snapshot() const;

    /** {"traceEvents": [...]} with one complete event per span. */
    lfm::support::Json chromeTrace() const;

  private:
    std::int64_t nowNs() const;

    bool on_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/** RAII span; inert when the recorder is null or off. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *recorder, std::string name, std::uint64_t op,
              int parent = -1)
        : recorder_(recorder != nullptr && recorder->on() ? recorder
                                                          : nullptr),
          id_(recorder_ != nullptr
                  ? recorder_->open(std::move(name), op, parent)
                  : -1)
    {
    }

    ~SpanScope()
    {
        if (recorder_ != nullptr)
            recorder_->close(id_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    int id_;
};

/** The layer of a span: its name up to the first '.'. */
std::string layerOf(const std::string &spanName);

/**
 * Self time of every span, indexed like spans: its duration minus the
 * union of its children's intervals clipped to its own. Open spans
 * count as zero-length.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Share (0..1) of span id's duration that its children cover. */
double childCoverage(const std::vector<Span> &spans,
                     const std::vector<std::int64_t> &selfNs, int id);

/** Aggregates of the spans that belong to operations. */
struct Attribution
{
    std::size_t ops = 0;               ///< root spans summarized
    double minCoverage = 1.0;          ///< worst children/op share
    std::size_t opsUnderCovered = 0;   ///< ops below 95% coverage
    std::map<std::string, double> selfMsByLayer;  ///< summed over ops
    std::map<std::string, double> totalMsByName;  ///< summed durations
    std::map<std::string, std::size_t> countByName;
};

/**
 * Summarize the trees under root spans whose name starts with
 * rootPrefix: each root is one operation, its own self time is
 * counted under the layer "bench" (time outside any layer call).
 */
Attribution attribute(const std::vector<Span> &spans,
                      const std::string &rootPrefix);

} // namespace perf_e2e

#endif // PERF_E2E_SPANS_HH
