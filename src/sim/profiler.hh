/**
 * @file
 * Wall-clock time-budget profiler for the sharded engine.
 *
 * Answers the question the ROADMAP's scaling work is blocked on: where
 * does parallel wall time actually go? Each worker's window lifecycle
 * is split into five buckets —
 *
 *   execute       running a window's events (>=1 event fired)
 *   idle          an execute phase that fired zero events on this
 *                 shard (the wall cost of conservative window skew)
 *   barrier_plan  waiting at the round barrier (includes the one
 *                 thread that runs planRound in the completion). The
 *                 engine fuses plan and sync into this single
 *                 barrier, so barrier_sync is retained only for
 *                 schema stability and reads ~0.
 *   barrier_sync  the retired post-execute sync barrier (above)
 *   drain         draining cross-shard mailboxes into the queues
 *
 * — accumulated lock-free in one cache-line-aligned slot per worker
 * (worker == shard in the current engine). The engine notes phase
 * boundaries with a single chained clock read per transition, so the
 * buckets tile the worker's wall time gap-free; the accounted
 * fraction (bucket sum / shards x run wall) is itself a health check
 * the bench asserts at >= 95%.
 *
 * Occupancy counters ride along: events executed per window (an idle
 * window is one that executed none), messages drained per barrier and
 * the max drain batch, skipped-window runs noted by the planner when
 * consecutive windows are not adjacent in sim time, a log2 histogram
 * of planned per-shard window widths (bucket 0 = rounds where the
 * shard had nothing to run — the direct readout of how much the
 * promise-based horizons widen windows beyond the static lookahead),
 * and the engine's adaptive-barrier outcomes (waits resolved by
 * spinning vs. futex sleeps).
 *
 * The profiler only observes: attaching it changes no sim-visible
 * state, so digests and sim-time metrics are identical with and
 * without --profile (the overhead gate in run_checks.sh bounds the
 * wall-clock cost instead).
 *
 * When a TraceSink is attached, every noted phase also becomes a
 * wall-clock slice on the worker's Perfetto track.
 */

#ifndef SHRIMP_SIM_PROFILER_HH
#define SHRIMP_SIM_PROFILER_HH

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/types.hh"

namespace shrimp::sim
{

class JsonWriter;
class TraceSink;

class ShardProfiler
{
  public:
    /** Per-worker bucket totals (nanoseconds) and occupancy. */
    struct Slot
    {
        std::uint64_t executeNs = 0;
        std::uint64_t idleNs = 0;
        std::uint64_t planNs = 0;
        std::uint64_t syncNs = 0;
        std::uint64_t drainNs = 0;
        std::uint64_t windows = 0;      ///< execute phases entered
        std::uint64_t idleWindows = 0;  ///< ... that fired no events
        std::uint64_t events = 0;       ///< events fired in windows
        std::uint64_t drained = 0;      ///< cross-shard msgs drained
        std::uint64_t maxDrainBatch = 0;

        std::uint64_t
        accountedNs() const
        {
            return executeNs + idleNs + planNs + syncNs + drainNs;
        }
    };

    explicit ShardProfiler(unsigned shards);

    ShardProfiler(const ShardProfiler &) = delete;
    ShardProfiler &operator=(const ShardProfiler &) = delete;

    unsigned shards() const { return unsigned(slots_.size()); }

    /** Nanoseconds since beginRun (monotonic). */
    std::uint64_t
    nowNs() const
    {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - origin_)
                .count());
    }

    /**
     * Start the measured region: zero the slots and the clock. The
     * engine only records while running, so setup phases outside
     * beginRun/endRun never pollute the budget.
     */
    void beginRun();

    /** End the measured region, fixing the run's wall time. */
    void endRun();

    bool running() const { return running_; }

    /** Run wall time (beginRun -> endRun), nanoseconds. */
    std::uint64_t wallNs() const { return wallNs_; }

    // ------------------------------------------ engine note points
    // All notes take profiler-relative timestamps from nowNs() so the
    // caller can chain one clock read across phase boundaries. Each
    // slot is written only by its own worker thread between the
    // barriers; the joins at the end of runWindows publish the slots
    // to the reader.
    void notePlan(unsigned worker, std::uint64_t t0, std::uint64_t t1);
    void noteExecute(unsigned worker, std::uint64_t t0, std::uint64_t t1,
                     std::uint64_t events_fired);
    void noteSync(unsigned worker, std::uint64_t t0, std::uint64_t t1);
    void noteDrain(unsigned worker, std::uint64_t t0, std::uint64_t t1,
                   std::uint64_t drained);

    /** Planner saw a sim-time gap between consecutive windows (the
     *  next event lies beyond the previous window's end + 1). Called
     *  from the barrier completion: serialized, but possibly from a
     *  different thread each window, hence the relaxed atomic. */
    void
    noteWindowSkip()
    {
        skippedRuns_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Log2 window-width histogram buckets: [0] counts rounds where a
     *  shard had nothing to run; bucket k >= 1 counts planned widths
     *  in [2^(k-1), 2^k) ticks; the last bucket absorbs the rest. */
    static constexpr unsigned widthBuckets = 65;

    /** Planner computed a per-shard window of @p width ticks (0 =
     *  the shard was idle this round). Called from the barrier
     *  completion — serialized, but possibly from a different thread
     *  each round, hence the relaxed atomics. */
    void
    noteWindowWidth(Tick width)
    {
        const unsigned b =
            width == 0
                ? 0u
                : std::min<unsigned>(widthBuckets - 1,
                                     std::bit_width(std::uint64_t(width)));
        widthHist_[b].fetch_add(1, std::memory_order_relaxed);
    }

    /** Accumulate the engine's adaptive-barrier outcomes for a run
     *  (called once per runWindows, after the joins). */
    void
    addBarrierWaits(std::uint64_t spin_wakes, std::uint64_t futex_sleeps)
    {
        barSpinWakes_.fetch_add(spin_wakes, std::memory_order_relaxed);
        barSleeps_.fetch_add(futex_sleeps, std::memory_order_relaxed);
    }

    /** Mirror every noted phase into @p sink as wall slices. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    // ------------------------------------------------------ results
    const Slot &slot(unsigned worker) const { return slots_[worker].s; }

    /** Sum of all workers' buckets and occupancy counters. */
    Slot totals() const;

    std::uint64_t
    skippedWindowRuns() const
    {
        return skippedRuns_.load(std::memory_order_relaxed);
    }

    /** Count in window-width histogram bucket @p i (see widthBuckets). */
    std::uint64_t
    windowWidthBucket(unsigned i) const
    {
        return widthHist_[i].load(std::memory_order_relaxed);
    }

    /** Barrier waits resolved while spinning, this run. */
    std::uint64_t
    barrierSpinWakes() const
    {
        return barSpinWakes_.load(std::memory_order_relaxed);
    }

    /** Barrier waits that fell back to a futex sleep, this run. */
    std::uint64_t
    barrierFutexSleeps() const
    {
        return barSleeps_.load(std::memory_order_relaxed);
    }

    /**
     * Fraction of total parallel wall time (shards x wallNs) the five
     * buckets account for; the profiler's own self-check. 0 when the
     * run had no measured wall time.
     */
    double accountedFraction() const;

    /** Human-readable per-shard time-budget table. */
    void writeTable(std::ostream &os) const;

    /** The bench-JSON `profile` block (one complete JSON object). */
    void dumpJson(JsonWriter &w) const;

  private:
    /** Cache-line isolation: each worker owns one padded slot. */
    struct alignas(64) PaddedSlot
    {
        Slot s;
    };

    std::vector<PaddedSlot> slots_;
    std::chrono::steady_clock::time_point origin_;
    std::uint64_t wallNs_ = 0;
    bool running_ = false;
    std::atomic<std::uint64_t> skippedRuns_{0};
    std::array<std::atomic<std::uint64_t>, widthBuckets> widthHist_{};
    std::atomic<std::uint64_t> barSpinWakes_{0};
    std::atomic<std::uint64_t> barSleeps_{0};
    TraceSink *sink_ = nullptr;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_PROFILER_HH
