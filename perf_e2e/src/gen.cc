#include "gen.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "support/random.hh"
#include "trace/corpus.hh"
#include "trace/replay.hh"

namespace perf_e2e
{

namespace
{

constexpr std::uint64_t kDataBase = 0x10000;
constexpr std::uint64_t kDataStride = 0x40;
constexpr std::uint64_t kLockBase = 0x1000;
constexpr std::uint64_t kLockStride = 0x10;
constexpr double kWriteShare = 0.35;
constexpr unsigned kMaxCriticalAccesses = 3;
/** Chance that a thread's next step opens a critical section. */
constexpr double kLockShare = 0.25;

/** One simulated logical thread of the recording. */
struct SimThread
{
    unsigned tid = 0;
    bool spawned = false;
    bool started = false;
    bool finished = false;
    std::size_t budget = 0;      ///< body records still to emit
    unsigned created = 0;        ///< main only: creates emitted
    unsigned joined = 0;         ///< main only: joins emitted
    int held = -1;               ///< lock index held
    int waiting = -1;            ///< lock index it blocks on
    unsigned criticalLeft = 0;   ///< accesses left inside the lock
};

class LogWriter
{
  public:
    LogWriter(const LogShape &shape, std::uint64_t seed)
        : shape_(shape), rng_(seed)
    {
    }

    std::string
    run()
    {
        const unsigned n = std::max(1u, shape_.threads);
        const std::size_t fixed = 4 * static_cast<std::size_t>(n) - 2;
        const std::size_t body =
            shape_.records > fixed ? shape_.records - fixed : 0;
        threads_.resize(n);
        for (unsigned i = 0; i < n; ++i) {
            threads_[i].tid = i + 1;
            threads_[i].budget = body / n + (i < body % n ? 1 : 0);
        }
        threads_[0].spawned = true;
        owner_.assign(std::max(1u, shape_.locks), -1);

        std::vector<unsigned> ready;
        while (true) {
            ready.clear();
            for (unsigned i = 0; i < n; ++i)
                if (canStep(i))
                    ready.push_back(i);
            if (ready.empty())
                break;
            step(ready[rng_.index(ready.size())]);
        }
        return std::move(out_);
    }

  private:
    bool
    canStep(unsigned i) const
    {
        const SimThread &t = threads_[i];
        if (!t.spawned || t.finished)
            return false;
        if (t.waiting >= 0)
            return owner_[static_cast<std::size_t>(t.waiting)] < 0;
        if (i == 0 && t.started && t.created + 1 == threads_.size() &&
            t.budget == 0 && t.held < 0 && t.joined + 1 < threads_.size())
            return threads_[t.joined + 1].finished;
        return true;
    }

    void
    emit(const SimThread &t, const std::string &rest)
    {
        ts_ += 10;
        out_ += std::to_string(ts_) + " " + std::to_string(t.tid) + " " +
                rest + "\n";
    }

    static std::string
    hex(std::uint64_t v)
    {
        static const char digits[] = "0123456789abcdef";
        std::string s;
        do {
            s.insert(s.begin(), digits[v & 0xf]);
            v >>= 4;
        } while (v != 0);
        return "0x" + s;
    }

    void
    access(SimThread &t)
    {
        const unsigned vars = std::max(1u, shape_.variables);
        std::uint64_t var = 0;
        if (vars > 1) {
            var = shape_.hotShare > 0.0
                      ? (rng_.chance(shape_.hotShare)
                             ? 0
                             : 1 + rng_.below(vars - 1))
                      : rng_.below(vars);
        }
        emit(t, std::string(rng_.chance(kWriteShare) ? "write " : "read ") +
                    hex(kDataBase + var * kDataStride) + " 8");
        --t.budget;
    }

    void
    lock(SimThread &t, int index)
    {
        owner_[static_cast<std::size_t>(index)] = static_cast<int>(t.tid);
        t.held = index;
        t.waiting = -1;
        emit(t, "lock " + hex(kLockBase + static_cast<std::uint64_t>(
                                              index) * kLockStride));
        --t.budget;
    }

    void
    step(unsigned i)
    {
        SimThread &t = threads_[i];
        if (!t.started) {
            t.started = true;
            emit(t, "thread_start");
            return;
        }
        if (i == 0 && t.created + 1 < threads_.size()) {
            SimThread &child = threads_[++t.created];
            child.spawned = true;
            emit(t, "create " + std::to_string(child.tid));
            return;
        }
        if (t.waiting >= 0) {
            lock(t, t.waiting);
            return;
        }
        if (t.held >= 0) {
            if (t.criticalLeft > 0) {
                --t.criticalLeft;
                access(t);
                return;
            }
            owner_[static_cast<std::size_t>(t.held)] = -1;
            emit(t, "unlock " + hex(kLockBase +
                                    static_cast<std::uint64_t>(t.held) *
                                        kLockStride));
            t.held = -1;
            --t.budget;
            return;
        }
        if (t.budget > 0) {
            if (t.budget >= 3 && rng_.chance(kLockShare)) {
                const auto index =
                    static_cast<int>(rng_.below(owner_.size()));
                t.criticalLeft = 1 + static_cast<unsigned>(rng_.below(
                                         std::min<std::size_t>(
                                             kMaxCriticalAccesses,
                                             t.budget - 2)));
                if (owner_[static_cast<std::size_t>(index)] < 0)
                    lock(t, index);
                else
                    t.waiting = index;
                return;
            }
            access(t);
            return;
        }
        if (i == 0 && t.joined + 1 < threads_.size()) {
            emit(t, "join " + std::to_string(threads_[++t.joined].tid));
            return;
        }
        t.finished = true;
        emit(t, "thread_exit");
    }

    LogShape shape_;
    lfm::support::Rng rng_;
    std::vector<SimThread> threads_;
    std::vector<int> owner_;  ///< lock index -> holder tid, -1 = free
    std::uint64_t ts_ = 0;
    std::string out_;
};

} // namespace

LogShape
hotShape(std::size_t records)
{
    LogShape shape;
    shape.threads = 4;
    shape.variables = 16;
    shape.hotShare = 0.7;
    shape.locks = 2;
    shape.records = records;
    return shape;
}

LogShape
wideShape(std::size_t records)
{
    LogShape shape;
    shape.threads = 8;
    shape.variables = 64;
    shape.hotShare = 0.0;
    shape.locks = 4;
    shape.records = records;
    return shape;
}

std::string
generateLog(const LogShape &shape, std::uint64_t seed)
{
    return LogWriter(shape, seed).run();
}

Upload
generateUpload(std::uint64_t seed, unsigned traces)
{
    lfm::support::Rng rng(seed);
    Upload upload;
    upload.traces = traces;
    lfm::trace::CorpusWriter writer;
    for (unsigned i = 0; i < upload.traces; ++i) {
        const auto result = lfm::trace::replay::importLogText(
            generateLog(wideShape(256), rng.next()), "upload");
        if (!result.ok || result.stats.quarantined != 0 ||
            result.stats.stalled != 0)
            throw std::runtime_error(
                "generated upload log does not import cleanly");
        upload.events += result.trace.size();
        writer.add(result.trace);
    }
    upload.corpus = writer.encode();
    return upload;
}

} // namespace perf_e2e
