#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <utility>

namespace perf_e2e
{

namespace
{

/** Small stable per-thread index for the Chrome trace's tid column. */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

std::int64_t
durationNs(const Span &span)
{
    return span.endNs < 0 ? 0 : span.endNs - span.startNs;
}

} // namespace

SpanRecorder::SpanRecorder(bool on)
    : on_(on), epoch_(std::chrono::steady_clock::now())
{
}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanRecorder::open(std::string name, std::uint64_t op, int parent)
{
    if (!on_)
        return -1;
    Span span;
    span.name = std::move(name);
    span.op = op;
    span.parent = parent;
    span.tid = threadIndex();
    span.startNs = nowNs();
    std::lock_guard lk(m_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    const std::int64_t end = nowNs();
    std::lock_guard lk(m_);
    spans_[static_cast<std::size_t>(id)].endNs = end;
}

std::vector<Span>
SpanRecorder::snapshot() const
{
    std::lock_guard lk(m_);
    return spans_;
}

lfm::support::Json
SpanRecorder::chromeTrace() const
{
    using lfm::support::Json;
    const std::vector<Span> spans = snapshot();
    Json events = Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        Json args;
        args.set("id", static_cast<std::uint64_t>(i))
            .set("op", s.op)
            .set("parent", s.parent);
        Json ev;
        ev.set("name", s.name)
            .set("cat", layerOf(s.name))
            .set("ph", "X")
            .set("ts", static_cast<double>(s.startNs) / 1e3)
            .set("dur", static_cast<double>(durationNs(s)) / 1e3)
            .set("pid", 1)
            .set("tid", s.tid)
            .set("args", std::move(args));
        events.push(std::move(ev));
    }
    Json doc;
    doc.set("traceEvents", std::move(events));
    return doc;
}

std::string
layerOf(const std::string &spanName)
{
    return spanName.substr(0, spanName.find('.'));
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 || s.endNs < 0)
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi = std::min(s.endNs, p.endNs);
        if (lo < hi)
            children[static_cast<std::size_t>(s.parent)].emplace_back(lo,
                                                                      hi);
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curLo = 0;
        std::int64_t curHi = -1;
        for (const auto &[lo, hi] : iv) {
            if (lo > curHi) {
                covered += std::max<std::int64_t>(0, curHi - curLo);
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        covered += std::max<std::int64_t>(0, curHi - curLo);
        self[i] = durationNs(spans[i]) - covered;
    }
    return self;
}

double
childCoverage(const std::vector<Span> &spans,
              const std::vector<std::int64_t> &selfNs, int id)
{
    const auto i = static_cast<std::size_t>(id);
    const std::int64_t dur = durationNs(spans[i]);
    if (dur <= 0)
        return 1.0;
    return 1.0 - static_cast<double>(selfNs[i]) / static_cast<double>(dur);
}

Attribution
attribute(const std::vector<Span> &spans, const std::string &rootPrefix)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);

    // A span belongs to the operation of its root ancestor.
    std::vector<int> root(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        // Parents are opened before their children, so they come first.
        root[i] = p < 0 ? static_cast<int>(i)
                        : root[static_cast<std::size_t>(p)];
    }

    Attribution out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &r = spans[static_cast<std::size_t>(root[i])];
        if (r.name.rfind(rootPrefix, 0) != 0 || r.endNs < 0)
            continue;
        const Span &s = spans[i];
        const double selfMs = static_cast<double>(self[i]) / 1e6;
        if (static_cast<int>(i) == root[i]) {
            ++out.ops;
            const double cov =
                childCoverage(spans, self, static_cast<int>(i));
            out.minCoverage = std::min(out.minCoverage, cov);
            if (cov < 0.95)
                ++out.opsUnderCovered;
            out.selfMsByLayer["bench"] += selfMs;
        } else {
            out.selfMsByLayer[layerOf(s.name)] += selfMs;
        }
        out.totalMsByName[s.name] +=
            static_cast<double>(durationNs(s)) / 1e6;
        ++out.countByName[s.name];
    }
    return out;
}

} // namespace perf_e2e
