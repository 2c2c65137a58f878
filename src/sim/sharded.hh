/**
 * @file
 * The simulation engine behind every core::System: one EventQueue per
 * node, executed in distance-aware conservative time windows
 * (Chandy-Misra-style) by a pool of workers, one shard of nodes per
 * worker. One worker (the default) starts no thread: the caller runs
 * every node's queue in merged order, the fastest sequential path.
 *
 * Synchronization is driven by two inputs instead of one global
 * horizon:
 *
 *  - A per-(source shard, destination shard) *lookahead matrix*,
 *    derived from the interconnect's minimum real delivery latency
 *    (`Interconnect::minDeliveryLatency`: header serialization on the
 *    injection link plus the routing hop — see DESIGN.md §10). Any
 *    event node s schedules on node d lands at least
 *    `pairLookahead(shard(s), shard(d))` ticks past s's clock.
 *
 *  - Per-round *promises*: at every barrier each shard publishes its
 *    earliest possible next event (its queues' minimum pending tick,
 *    plus a per-destination minimum over the cross-posts it staged
 *    this round). The planner computes each shard's safe horizon as
 *
 *        H[d] = min over s != d of (nextEvent[s] + pairLookahead[s][d])
 *
 *    and shard d executes the inclusive window [.., H[d] - 1]. A
 *    shard whose peers are idle or far in the future runs a huge
 *    window — up to the limit in one hop — instead of lock-stepping
 *    at the static lookahead like the original global-window scheme.
 *
 * One barrier per round: the plan runs in the barrier's completion
 * step (every worker parked), and each worker then drains its inbox
 * and executes its window — there is no separate post-execute sync
 * barrier. A shard holding several nodes executes them in merged
 * (tick, priority, node) order, picked by a tournament tree over the
 * queues' next-event keys (MinTree: O(log n) per event), so same-shard
 * cross-node posts are delivered directly into the destination queue
 * without clamping anyone's horizon.
 *
 * Cross-shard messages travel through per-(source shard, destination
 * shard) SPSC mailboxes and carry a canonical *stamp* allocated from
 * the originating node's queue at post() time
 * (see EventQueue::allocStamp). Queues order ties by that stamp, so
 * the execution order at equal (tick, priority) is (source node,
 * per-source order) no matter when a message was drained — which is
 * what makes `--shards=1` and `--shards=N` bit-identical in sim time.
 *
 * Barriers are also where the world is quiescent, so the invariant
 * auditor's hook and the stop predicate run in the barrier completion
 * step, on exactly one thread, with every worker parked.
 */

#ifndef SHRIMP_SIM_SHARDED_HH
#define SHRIMP_SIM_SHARDED_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/min_tree.hh"
#include "sim/spsc.hh"
#include "sim/types.hh"

namespace shrimp::sim
{

class ShardProfiler;

/**
 * Where a component posts an event destined for (possibly) another
 * node. The engine implements this with mailboxes (or direct delivery
 * between nodes of one shard).
 */
class NodeRouter
{
  public:
    virtual ~NodeRouter() = default;

    /**
     * Schedule @p fn at absolute tick @p when on node @p dst's queue.
     * Must be called from the shard currently executing @p src, and —
     * when src != dst — with
     * `when >= now(src) + pairLookahead(shard(src), shard(dst))` so
     * the event cannot land inside any window the destination may be
     * executing.
     */
    virtual void post(NodeId src, NodeId dst, Tick when,
                      const char *name, EventCallback fn,
                      EventPriority prio) = 0;
};

/**
 * A spinning barrier with a completion callback: the last thread to
 * arrive runs the completion (with every other participant parked),
 * then releases the phase.
 *
 * The spin budget adapts: a waiter that spins out and has to
 * futex-sleep halves the budget (down to spinFloor), one that is
 * released while still spinning nudges it back up (to spinCap), so a
 * run whose rounds turn over in microseconds stays off the futex
 * while an oversubscribed host stops burning cycles. Both outcomes
 * are counted — the profiler exports them so barrier behaviour is
 * observable, not guessed.
 */
class SpinBarrier
{
  public:
    static constexpr int spinCap = 4096;
    static constexpr int spinFloor = 64;

    explicit SpinBarrier(unsigned parties,
                         std::function<void()> completion = {})
        : parties_(parties), completion_(std::move(completion))
    {}

    void
    arriveAndWait()
    {
        const std::uint64_t phase =
            phase_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1
                == parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            if (completion_)
                completion_();
            phase_.store(phase + 1, std::memory_order_release);
            phase_.notify_all();
            return;
        }
        const int budget = spinBudget_.load(std::memory_order_relaxed);
        for (int spin = 0; spin < budget; ++spin) {
            if (phase_.load(std::memory_order_acquire) != phase) {
                spinWakes_.fetch_add(1, std::memory_order_relaxed);
                if (budget < spinCap) {
                    spinBudget_.store(
                        std::min(spinCap, budget + budget / 4 + 1),
                        std::memory_order_relaxed);
                }
                return;
            }
        }
        spinBudget_.store(std::max(spinFloor, budget / 2),
                          std::memory_order_relaxed);
        futexSleeps_.fetch_add(1, std::memory_order_relaxed);
        while (phase_.load(std::memory_order_acquire) == phase)
            phase_.wait(phase, std::memory_order_acquire);
    }

    /** Waits released while still spinning (no futex involved). */
    std::uint64_t
    spinWakes() const
    {
        return spinWakes_.load(std::memory_order_relaxed);
    }

    /** Waits that exhausted the spin budget and slept on the futex. */
    std::uint64_t
    futexSleeps() const
    {
        return futexSleeps_.load(std::memory_order_relaxed);
    }

    /** Current adaptive spin budget (observability/tests). */
    int
    spinBudget() const
    {
        return spinBudget_.load(std::memory_order_relaxed);
    }

  private:
    const unsigned parties_;
    std::function<void()> completion_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> phase_{0};
    std::atomic<int> spinBudget_{spinCap};
    std::atomic<std::uint64_t> spinWakes_{0};
    std::atomic<std::uint64_t> futexSleeps_{0};
};

/**
 * The engine: per-node queues, shard-of-nodes worker partitioning,
 * mailboxes, and the windowed run loop.
 *
 * Two run modes:
 *  - run()/runUntil(): the parallel data-phase loop. Within a window
 *    each node's queue executes independently, so node state must not
 *    be read across nodes except through post(). The stop predicate
 *    is evaluated at window barriers — note that a shard decoupled
 *    from all cross-traffic may execute all the way to the limit in
 *    one window, so the predicate's granularity is the window, not
 *    the event.
 *  - runSetup(): a sequential phase for workload setup that *does*
 *    rendezvous through host-shared state (e.g. msg::Channel's
 *    export/import flags). All queues are interleaved in one global
 *    canonical (tick, priority, node) order on the calling thread, so
 *    cross-node host reads are both race-free and shard-count
 *    independent; the predicate is checked after every event. The
 *    next event is the minimum over the shards' tree roots, so both
 *    modes share one selection structure.
 */
class ShardedEngine : public NodeRouter
{
  public:
    /** Minimum delivery latency from node @p src to node @p dst. */
    using PairLookahead = std::function<Tick(NodeId src, NodeId dst)>;

    /** Uniform lookahead (floored at 1 tick) between any node pair. */
    ShardedEngine(unsigned nodes, unsigned shards, Tick lookahead);

    /**
     * Distance-aware lookahead: @p la is queried once per ordered
     * node pair at construction and folded into a per-(src shard,
     * dst shard) matrix of minima.
     */
    ShardedEngine(unsigned nodes, unsigned shards,
                  const PairLookahead &la);

    ~ShardedEngine() override;

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    unsigned nodeCount() const { return unsigned(queues_.size()); }
    unsigned shardCount() const { return shards_; }
    unsigned shardOf(NodeId node) const { return node % shards_; }

    /** The smallest entry of the lookahead matrix (also the uniform
     *  window width runSetup uses). */
    Tick lookahead() const { return minLookahead_; }

    /** The (src shard, dst shard) lookahead floor: no post from a
     *  node of @p src_shard may land on a node of @p dst_shard less
     *  than this far past the poster's clock. */
    Tick
    pairLookahead(unsigned src_shard, unsigned dst_shard) const
    {
        return pairL_[std::size_t(src_shard) * shards_ + dst_shard];
    }

    EventQueue &
    queue(NodeId node)
    {
        return *queues_.at(node);
    }

    // --------------------------------------------- NodeRouter
    void post(NodeId src, NodeId dst, Tick when, const char *name,
              EventCallback fn, EventPriority prio) override;

    // --------------------------------------------- run loop
    // Every run mode returns @p limit when it stopped there with
    // events still pending past it (time advanced to the limit, as
    // EventQueue::run has it), and now() otherwise.

    /** Parallel windowed run until every queue drains or @p limit. */
    Tick run(Tick limit = maxTick);

    /**
     * Parallel windowed run; @p pred is evaluated in the barrier
     * completion (all workers parked) and stops the run when true.
     */
    Tick runUntil(const std::function<bool()> &pred,
                  Tick limit = maxTick);

    /** Sequential canonical-order run (see class comment). */
    Tick runSetup(const std::function<bool()> &pred,
                  Tick limit = maxTick);

    /**
     * Invoked in the barrier completion step before each window (and
     * once before the run finishes), where every shard is quiescent:
     * the natural audit point.
     */
    void setBarrierHook(std::function<void()> hook)
    {
        barrierHook_ = std::move(hook);
    }

    /**
     * Attach a time-budget profiler. Workers note their window
     * lifecycle phases into it while it is running() (see
     * profiler.hh); detach with nullptr. Observational only — the
     * sim-visible execution is identical with or without it.
     */
    void setProfiler(ShardProfiler *profiler) { profiler_ = profiler; }

    // --------------------------------------------- merged views
    /**
     * Global sim time: the max over per-node *last fired* ticks. The
     * fired tick — unlike EventQueue::now(), which run(limit) parks
     * at the window end even when the stretch was empty — does not
     * depend on how windows were shaped, so this value is canonical
     * across shard counts.
     */
    Tick now() const;

    /** Sum of per-queue executed-event counts. */
    std::uint64_t eventsExecuted() const;

    /** Sum of per-queue dispatched-event counts (executed minus
     *  elided repeat firings). */
    std::uint64_t eventsDispatched() const;

    /**
     * Pending events: the per-queue counts plus any cross-shard
     * messages still staged in mailboxes (posted but not yet drained
     * — a run stopped at a predicate can leave some staged; they are
     * delivered at the next run's entry). Exact when the engine is
     * not running.
     */
    std::uint64_t pendingEvents() const;

    /** Cross-node posts (src != dst): mailbox messages plus
     *  same-shard direct deliveries. Shard-count invariant. */
    std::uint64_t crossPosts() const;

    /** Conservative windows executed (both run modes). */
    std::uint64_t windows() const { return windows_; }

    /** Barrier waits resolved by spinning / by futex sleep, summed
     *  over all runs since construction. */
    std::uint64_t barrierSpinWakes() const { return barSpinWakes_; }
    std::uint64_t barrierFutexSleeps() const { return barSleeps_; }

  private:
    struct CrossMsg
    {
        Tick when = 0;
        std::int32_t prio = 0;
        /** Canonical tie-break key, allocated on the source queue at
         *  post() time (EventQueue::allocStamp). */
        std::uint64_t stamp = 0;
        NodeId src = 0;
        NodeId dst = 0;
        const char *name = nullptr;
        EventCallback fn;
    };

    /**
     * One (source shard -> destination shard) channel. The ring is
     * the lock-free fast path. Overflow spills into one of two plain
     * vectors, selected by the round parity: the producer writes
     * spill[parity] while the consumer drains spill[parity ^ 1] —
     * always the previous round's overflow, published by the barrier
     * in between — so the fused-barrier round (drain concurrent with
     * the producers' execution) never has two threads on one vector.
     * `posted` is owned by the producer, `delivered` by the consumer;
     * both are summed on demand when the world is quiescent.
     */
    struct Mailbox
    {
        SpscRing<CrossMsg> ring{1024};
        std::vector<CrossMsg> spill[2];
        std::uint64_t posted = 0;
        std::uint64_t delivered = 0;
    };

    /**
     * Per-shard working state, one cache line set per shard (the
     * alignment keeps one shard's hot fields — selection tree,
     * promise row, counters — off every other shard's lines; the
     * window loop touches these every event).
     *
     * Ownership: the shard's own worker writes everything during its
     * round; `windowEnd` is written by the barrier completion (all
     * workers parked) and read by the owner; `localNext` and
     * `postedMin` are written by the owner and read by the completion.
     * The barrier provides the happens-before edges in both
     * directions, so none of it needs atomics.
     */
    struct alignas(64) ShardState
    {
        /** Earliest pending tick across this shard's queues,
         *  published at the end of each round. */
        Tick localNext = maxTick;
        /** This round's inclusive execution horizon (completion). */
        Tick windowEnd = 0;
        /** postedMin[d]: earliest cross-post staged toward shard d
         *  this round — the shard's promise to its peers. */
        std::vector<Tick> postedMin;
        /** The nodes this shard executes, ascending. */
        std::vector<NodeId> nodes;
        /** queues[i] == engine queue of nodes[i]. */
        std::vector<EventQueue *> queues;
        /** Tournament tree over the queues' (tick, prio) next-event
         *  keys, leaf i == queues[i]. Rebuilt from the queues at
         *  window entry (after the drain), replayed on the fired
         *  queue's path after each step, and on the destination's
         *  path when post() lowers its key by same-shard direct
         *  delivery — so the root is always the shard's next event. */
        MinTree<std::pair<Tick, std::int32_t>> tree;
        /** Drain scratch, reused (capacity persists) across rounds. */
        std::vector<CrossMsg> drainBuf;
        /** Same-shard cross-node posts delivered directly. */
        std::uint64_t directPosts = 0;
        /** A direct post lands at least this far past its poster's
         *  clock: the shard's diagonal of the lookahead matrix. */
        Tick directLookahead = 1;

        /** Refill the tree from the queues' next-event keys. */
        void
        rebuildTree()
        {
            for (std::size_t i = 0; i < queues.size(); ++i)
                tree.set(i, queues[i]->nextEventKey());
            tree.build();
        }

        /** Fire the tree's winner if it is due by @p end (inclusive)
         *  and replay its path; false when nothing is due. With
         *  @p batch (and two or more queues) an elided repeat takes,
         *  in this one step, every firing before its queue's next
         *  other event, up to @p end and to the tick before the
         *  earliest direct post another queue could still land: its
         *  next event tick plus directLookahead. Without @p batch,
         *  one firing. */
        bool
        stepNext(Tick end, bool batch)
        {
            const std::size_t i = tree.winner();
            const Tick when = tree.key(i).first;
            // The empty-queue sentinel (maxTick) passes the window
            // filter when the horizon itself is maxTick.
            if (when > end || when == maxTick)
                return false;
            if (batch) {
                const Tick others = tree.runnerUpKey().first;
                const Tick safe = others >= maxTick - directLookahead
                                      ? maxTick
                                      : others + directLookahead - 1;
                queues[i]->stepWithin(std::min(end, safe));
            } else {
                queues[i]->step();
            }
            tree.update(i, queues[i]->nextEventKey());
            return true;
        }
    };

    struct Control
    {
        Tick limit = maxTick;
        const std::function<bool()> *pred = nullptr;
        bool done = false;
        /** The run ended because the next event lies past limit. */
        bool hitLimit = false;
        /** Which spill vector producers write this round. */
        unsigned parity = 0;
        /** True once a first window has been planned this run. */
        bool haveWindow = false;
        /** Max shard horizon of the previous round (skip detection). */
        Tick prevMaxEnd = 0;
        std::exception_ptr error;
    };

    Mailbox &
    box(unsigned src_shard, unsigned dst_shard)
    {
        return *boxes_[src_shard * shards_ + dst_shard];
    }

    /** Shared constructor body. */
    void init(unsigned nodes, const PairLookahead &la);

    /** Uniform runSetup windows: [start, start + lookahead() - 1]. */
    Tick windowEndFor(Tick start, Tick limit) const;

    /**
     * Pop every mailbox bound for @p dst_shard — the ring plus the
     * previous round's spill (both spills when @p both, the
     * sequential entry drain) — and schedule the messages,
     * stable-sorted by (tick, priority, stamp), into the destination
     * queues. @return Number of messages delivered.
     */
    std::size_t drainShard(unsigned dst_shard, bool both);

    /** Sequential full drain (entry to either run mode). */
    void drainAll();

    /** Barrier completion: audit hook, predicate, promise-based
     *  per-shard horizons for the next round. */
    void planRound();

    /** Execute shard @p s's queues up to its windowEnd: the single
     *  queue directly, several in the tree's merged order. */
    void executeShard(unsigned s);

    /** One worker's rounds; its profile starts at @p start_ns (the
     *  run's start, so thread start-up lands in the plan bucket).
     *  @return The end of its last profiled phase (start_ns when not
     *  profiling). */
    std::uint64_t workerBody(unsigned worker, std::uint64_t start_ns);
    void noteError();

    Tick runWindows(const std::function<bool()> *pred, Tick limit);

    const unsigned shards_;
    /** Min of pairL_ (runSetup window width; lookahead() accessor). */
    Tick minLookahead_ = 1;
    /** Shard-pair lookahead matrix, row-major [src * shards_ + dst]:
     *  min over the member node pairs of the per-node-pair floor. */
    std::vector<Tick> pairL_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    /** Index of each node within its shard's queues (its tree leaf). */
    std::vector<std::uint32_t> nodeShardIdx_;
    std::vector<ShardState> shardStates_;
    std::vector<std::unique_ptr<Mailbox>> boxes_;
    /** Completion scratch: per-shard earliest possible next event. */
    std::vector<Tick> nextEvent_;

    std::function<void()> barrierHook_;
    ShardProfiler *profiler_ = nullptr;
    std::uint64_t windows_ = 0;
    std::uint64_t barSpinWakes_ = 0;
    std::uint64_t barSleeps_ = 0;

    Control ctrl_;
    std::mutex errMu_;
    std::unique_ptr<SpinBarrier> barrier_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_SHARDED_HH
