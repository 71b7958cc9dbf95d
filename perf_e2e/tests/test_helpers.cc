/**
 * @file
 * Tests of the benchmark's own helpers: generator determinism and
 * feasibility, the tail-percentile rule, and self-time arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "gen.hh"
#include "spans.hh"
#include "stats.hh"
#include "trace/corpus.hh"
#include "trace/replay.hh"

namespace
{

using namespace perf_e2e;

TEST(Generators, SameSeedSameBytes)
{
    EXPECT_EQ(generateLog(hotShape(2048), 7), generateLog(hotShape(2048), 7));
    EXPECT_EQ(generateLog(wideShape(2048), 7),
              generateLog(wideShape(2048), 7));
    EXPECT_NE(generateLog(wideShape(2048), 7),
              generateLog(wideShape(2048), 8));
    EXPECT_EQ(generateUpload(11, 3).corpus, generateUpload(11, 3).corpus);
    EXPECT_NE(generateUpload(11, 3).corpus, generateUpload(12, 3).corpus);
}

TEST(Generators, LogsAreFeasibleRecordings)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        for (const LogShape &shape : {hotShape(4096), wideShape(4096)}) {
            const std::string log = generateLog(shape, seed);
            EXPECT_EQ(static_cast<std::size_t>(
                          std::count(log.begin(), log.end(), '\n')),
                      shape.records);
            const auto result =
                lfm::trace::replay::importLogText(log, "generated");
            ASSERT_TRUE(result.ok);
            EXPECT_EQ(result.stats.quarantined, 0u);
            EXPECT_EQ(result.stats.stalled, 0u);
            EXPECT_EQ(result.stats.records, shape.records);
            EXPECT_EQ(result.stats.threads, shape.threads);
        }
    }
}

TEST(Generators, HotLogsConcentrateOnOneVariable)
{
    const std::string log = generateLog(hotShape(8192), 3);
    std::size_t accesses = 0;
    std::size_t onHot = 0;
    std::size_t pos = 0;
    while ((pos = log.find(" 0x", pos)) != std::string::npos) {
        const std::size_t end = log.find(' ', pos + 1);
        const std::string addr = log.substr(pos + 1, end - pos - 1);
        const bool data = std::stoull(addr, nullptr, 16) >= 0x10000;
        if (data) {
            ++accesses;
            onHot += addr == "0x10000";
        }
        pos = end;
    }
    ASSERT_GT(accesses, 0u);
    const double share = static_cast<double>(onHot) / accesses;
    EXPECT_GT(share, 0.6);
    EXPECT_LT(share, 0.8);
}

TEST(Generators, UploadsHoldTheirTraces)
{
    for (unsigned traces = 1; traces <= 4; ++traces) {
        const Upload upload = generateUpload(traces, traces);
        EXPECT_EQ(upload.traces, traces);
        const auto reader = lfm::trace::CorpusReader::fromBuffer(
            upload.corpus.data(), upload.corpus.size());
        ASSERT_TRUE(reader.has_value());
        EXPECT_EQ(reader->traceCount(), upload.traces);
    }
}

TEST(Percentiles, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 90), 90);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(median(v), 50.5);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentiles, TenSamplesBeyondTheTail)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_EQ(samplesNeeded(99), 1000u);
    EXPECT_EQ(samplesNeeded(90), 100u);
    EXPECT_EQ(samplesNeeded(75), 40u);
    EXPECT_EQ(highestPercentile(1000), 99);
    EXPECT_EQ(highestPercentile(999), 95);
    EXPECT_EQ(highestPercentile(100), 90);
    EXPECT_EQ(highestPercentile(40), 75);
    EXPECT_EQ(highestPercentile(39), 50);
    EXPECT_EQ(highestPercentile(19), 0);
    EXPECT_EQ(highestPercentile(10000), 99.9);
}

Span
span(const char *name, int parent, std::int64_t start, std::int64_t end)
{
    Span s;
    s.name = name;
    s.op = 1;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // op [0,100): children [10,40) and [30,60) overlap, [90,120) is
    // clipped to the op; one grandchild [15,20) inside the first child.
    const std::vector<Span> spans = {
        span("op.x", -1, 0, 100),     span("sim.a", 0, 10, 40),
        span("detect.b", 0, 30, 60),  span("trace.c", 0, 90, 120),
        span("support.d", 1, 15, 20),
    };
    const auto self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 50 - 10);
    EXPECT_EQ(self[1], 30 - 5);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 5);
    EXPECT_DOUBLE_EQ(childCoverage(spans, self, 0), 0.6);

    const Attribution a = attribute(spans, "op.");
    EXPECT_EQ(a.ops, 1u);
    EXPECT_EQ(a.opsUnderCovered, 1u);
    EXPECT_DOUBLE_EQ(a.selfMsByLayer.at("bench"), 40e-6);
    EXPECT_DOUBLE_EQ(a.selfMsByLayer.at("sim"), 25e-6);
    EXPECT_EQ(a.countByName.at("detect.b"), 1u);
}

TEST(SelfTime, ProbesAreNotOperations)
{
    const std::vector<Span> spans = {
        span("op.x", -1, 0, 100),
        span("sim.a", 0, 0, 97),
        span("probe.y", -1, 200, 300),
        span("detect.z", 2, 200, 210),
    };
    const Attribution a = attribute(spans, "op.");
    EXPECT_EQ(a.ops, 1u);
    EXPECT_EQ(a.opsUnderCovered, 0u);
    EXPECT_DOUBLE_EQ(a.minCoverage, 0.97);
    EXPECT_EQ(a.countByName.count("detect.z"), 0u);
}

TEST(SelfTime, RecorderNestsScopes)
{
    SpanRecorder rec(true);
    {
        SpanScope root(&rec, "op.t", 5);
        SpanScope child(&rec, "trace.x", 5, root.id());
        EXPECT_EQ(child.id(), 1);
    }
    const auto spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);

    SpanRecorder off(false);
    SpanScope none(&off, "op.t", 1);
    EXPECT_EQ(none.id(), -1);
    EXPECT_TRUE(off.snapshot().empty());
}

} // namespace
