/**
 * @file
 * Seeded input generators: raw pthread event logs (the
 * trace/replay.hh grammar) and the LFMC corpora the serve workload
 * uploads. The program sees only these generated bytes; the same seed
 * always gives the same bytes.
 *
 * Every log is a feasible recording: it is written by simulating the
 * threads one record at a time, so a lock is taken only while free,
 * every thread starts after its create and ends before its join, and
 * no thread ever holds two locks. Importing one therefore quarantines
 * no line and stalls no record.
 */

#ifndef PERF_E2E_GEN_HH
#define PERF_E2E_GEN_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace perf_e2e
{

/** The knobs that shape one generated log. */
struct LogShape
{
    unsigned threads = 4;     ///< logical threads, main included
    unsigned variables = 16;  ///< distinct shared variables
    double hotShare = 0.0;    ///< share of accesses on variable 0
    unsigned locks = 2;       ///< distinct mutexes
    std::size_t records = 8192;  ///< log lines, about one event each
};

/** ~70% of the accesses on one variable, 4 threads. */
LogShape hotShape(std::size_t records = 8192);

/** 8 threads spreading accesses uniformly over 64 variables. */
LogShape wideShape(std::size_t records = 8192);

/** One interleaved log with exactly shape.records lines. */
std::string generateLog(const LogShape &shape, std::uint64_t seed);

/** One serve upload: an LFMC corpus of wide ~256-event traces. */
struct Upload
{
    std::string corpus;       ///< LFMC bytes
    unsigned traces = 0;
    std::size_t events = 0;   ///< events over all its traces
};

/**
 * Build one upload of `traces` traces. Throws std::runtime_error if an
 * import of its logs quarantines or stalls anything (a generator bug).
 */
Upload generateUpload(std::uint64_t seed, unsigned traces);

} // namespace perf_e2e

#endif // PERF_E2E_GEN_HH
