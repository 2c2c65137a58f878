#include "sim/sharded.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/profiler.hh"

namespace shrimp::sim
{

ShardedEngine::ShardedEngine(unsigned nodes, unsigned shards,
                             Tick lookahead)
    : ShardedEngine(nodes, shards,
                    PairLookahead([lookahead](NodeId, NodeId) {
                        return std::max<Tick>(lookahead, 1);
                    }))
{}

ShardedEngine::ShardedEngine(unsigned nodes, unsigned shards,
                             const PairLookahead &la)
    : shards_(std::min(std::max(shards, 1u), std::max(nodes, 1u)))
{
    SHRIMP_ASSERT(nodes > 0, "engine needs at least one node");
    SHRIMP_ASSERT(la, "engine needs a lookahead function");
    queues_.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
        queues_.push_back(std::make_unique<EventQueue>());
        queues_.back()->setFlightLabel("node" + std::to_string(n));
        // Brand the queue's stamps with its node id: ties at equal
        // (tick, priority) then execute in (source node, per-source
        // order) regardless of which shard drained the message when.
        queues_.back()->setStampSource(n);
    }

    shardStates_.resize(shards_);
    nodeShardIdx_.resize(nodes, 0);
    for (unsigned n = 0; n < nodes; ++n)
        shardStates_[n % shards_].nodes.push_back(n);
    for (unsigned s = 0; s < shards_; ++s) {
        ShardState &st = shardStates_[s];
        st.queues.reserve(st.nodes.size());
        for (std::size_t i = 0; i < st.nodes.size(); ++i) {
            nodeShardIdx_[st.nodes[i]] = std::uint32_t(i);
            st.queues.push_back(queues_[st.nodes[i]].get());
        }
        // Padding leaves sort after every real key, empty queues'
        // (maxTick, 0) included, so a real queue always wins the root.
        st.tree.reset(st.queues.size(),
                      {maxTick, std::numeric_limits<std::int32_t>::max()});
        st.postedMin.assign(shards_, maxTick);
    }

    boxes_.reserve(std::size_t(shards_) * shards_);
    for (unsigned i = 0; i < shards_ * shards_; ++i)
        boxes_.push_back(std::make_unique<Mailbox>());

    // Fold the per-node-pair floors into the shard-pair matrix: the
    // matrix entry must hold for *every* (src, dst) node pair mapped
    // onto it, so it takes the minimum. The per-pair floor itself is
    // clamped to one tick — a zero-lookahead channel cannot be
    // windowed, only serialized.
    pairL_.assign(std::size_t(shards_) * shards_, maxTick);
    minLookahead_ = maxTick;
    for (unsigned src = 0; src < nodes; ++src) {
        for (unsigned dst = 0; dst < nodes; ++dst) {
            if (src == dst)
                continue;
            const Tick l = std::max<Tick>(1, la(src, dst));
            Tick &cell =
                pairL_[std::size_t(shardOf(src)) * shards_ + shardOf(dst)];
            cell = std::min(cell, l);
            minLookahead_ = std::min(minLookahead_, l);
        }
    }
    if (minLookahead_ == maxTick)
        minLookahead_ = 1; // single node: no pairs, value unused
    for (unsigned s = 0; s < shards_; ++s)
        shardStates_[s].directLookahead =
            pairL_[std::size_t(s) * shards_ + s];
    nextEvent_.resize(shards_, maxTick);
}

ShardedEngine::~ShardedEngine() = default;

void
ShardedEngine::post(NodeId src, NodeId dst, Tick when, const char *name,
                    EventCallback fn, EventPriority prio)
{
    SHRIMP_ASSERT(src < nodeCount() && dst < nodeCount(),
                  "post outside the machine");
    if (src == dst) {
        // Self-sends never leave the queue; scheduling directly keeps
        // them at their natural latency with no canonicality cost (a
        // node's own queue order is shard-count independent already).
        queues_[src]->schedule(when, name, std::move(fn), prio);
        return;
    }
    const unsigned ss = shardOf(src);
    const unsigned ds = shardOf(dst);
    SHRIMP_ASSERT(when >= queues_[src]->now() + pairLookahead(ss, ds),
                  "cross-node post inside the shard-pair (", ss, " -> ",
                  ds, ") lookahead window");
    // The stamp is allocated on the *source* queue now, so the message
    // carries its canonical tie-break key no matter when it is drained.
    const std::uint64_t stamp = queues_[src]->allocStamp();
    ShardState &st = shardStates_[ss];
    if (ss == ds) {
        // Same shard: deliver directly. The shard's tree orders its
        // queues in global (tick, priority) order, so an event landing
        // at least one tick in the future is picked up at its exact
        // time with no mailbox hop and — crucially — without clamping
        // any window: the shard-pair diagonal never constrains the
        // horizon.
        queues_[dst]->scheduleStamped(when, stamp, name, std::move(fn),
                                      prio);
        ++st.directPosts;
        const std::size_t leaf = nodeShardIdx_[dst];
        const std::pair<Tick, std::int32_t> nk{when, std::int32_t(prio)};
        if (nk < st.tree.key(leaf))
            st.tree.update(leaf, nk);
        return;
    }
    Mailbox &mb = box(ss, ds);
    CrossMsg m{when, std::int32_t(prio), stamp, src, dst, name,
               std::move(fn)};
    if (!mb.ring.tryPush(std::move(m)))
        mb.spill[ctrl_.parity].push_back(std::move(m));
    ++mb.posted;
    // Publish the promise: the earliest tick shard ds may receive from
    // us this round. The next barrier folds it into ds's horizon.
    if (when < st.postedMin[ds])
        st.postedMin[ds] = when;
}

Tick
ShardedEngine::windowEndFor(Tick start, Tick limit) const
{
    // Inclusive window [start, start + lookahead - 1], clamped to the
    // run limit without overflowing near maxTick.
    if (limit - start < minLookahead_ - 1)
        return limit;
    return start + (minLookahead_ - 1);
}

std::size_t
ShardedEngine::drainShard(unsigned dst_shard, bool both)
{
    ShardState &st = shardStates_[dst_shard];
    auto &batch = st.drainBuf;
    for (unsigned src = 0; src < shards_; ++src) {
        Mailbox &mb = box(src, dst_shard);
        const std::size_t before = batch.size();
        CrossMsg m;
        while (mb.ring.tryPop(m))
            batch.push_back(std::move(m));
        // Only the *previous* round's spill is safe to touch while
        // producers run (they write spill[parity]); the sequential
        // entry drain takes both.
        auto takeSpill = [&](std::vector<CrossMsg> &spill) {
            for (auto &spilled : spill)
                batch.push_back(std::move(spilled));
            spill.clear();
        };
        takeSpill(mb.spill[ctrl_.parity ^ 1]);
        if (both)
            takeSpill(mb.spill[ctrl_.parity]);
        mb.delivered += batch.size() - before;
    }
    // Canonical delivery order: (tick, priority, stamp). The stamp is
    // (source node, per-source counter), so the insertion sequence —
    // and hence the (tick, priority, stamp) execution order — does not
    // depend on how nodes map to shards or how drains were batched.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const CrossMsg &a, const CrossMsg &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         if (a.prio != b.prio)
                             return a.prio < b.prio;
                         return a.stamp < b.stamp;
                     });
    for (auto &m : batch) {
        queues_[m.dst]->scheduleStamped(m.when, m.stamp, m.name,
                                        std::move(m.fn),
                                        EventPriority(m.prio));
    }
    const std::size_t delivered = batch.size();
    batch.clear();
    return delivered;
}

void
ShardedEngine::drainAll()
{
    for (unsigned s = 0; s < shards_; ++s)
        drainShard(s, /*both=*/true);
}

void
ShardedEngine::planRound()
{
    if (ctrl_.error) {
        ctrl_.done = true;
        return;
    }
    try {
        if (barrierHook_)
            barrierHook_();
        if (ctrl_.pred && (*ctrl_.pred)()) {
            ctrl_.done = true;
            return;
        }
    } catch (...) {
        ctrl_.error = std::current_exception();
        ctrl_.done = true;
        return;
    }
    // Earliest possible next event per shard: its own queues' minimum
    // plus every promise staged toward it this round. (A message both
    // promised and already drained may be counted twice; both copies
    // carry the same tick, so the minimum is merely conservative.)
    Tick global_next = maxTick;
    for (unsigned d = 0; d < shards_; ++d)
        nextEvent_[d] = shardStates_[d].localNext;
    for (unsigned s = 0; s < shards_; ++s) {
        const ShardState &st = shardStates_[s];
        for (unsigned d = 0; d < shards_; ++d)
            nextEvent_[d] = std::min(nextEvent_[d], st.postedMin[d]);
    }
    for (unsigned d = 0; d < shards_; ++d)
        global_next = std::min(global_next, nextEvent_[d]);
    if (global_next == maxTick || global_next > ctrl_.limit) {
        ctrl_.hitLimit = global_next != maxTick;
        ctrl_.done = true;
        return;
    }
    // Relax to the LBTS fixpoint: an apparently idle shard can still
    // be *woken* by a peer's message and reflect one back, so each
    // shard's earliest possible event is bounded through every path of
    // the lookahead matrix, not just its own queues. Uniform matrices
    // converge in one extra pass; the loop is capped by the longest
    // acyclic path anyway.
    for (bool changed = true; changed;) {
        changed = false;
        for (unsigned s = 0; s < shards_; ++s) {
            if (nextEvent_[s] == maxTick)
                continue;
            for (unsigned d = 0; d < shards_; ++d) {
                if (d == s)
                    continue;
                const Tick l = pairL_[std::size_t(s) * shards_ + d];
                if (nextEvent_[s] >= maxTick - l)
                    continue;
                const Tick reach = nextEvent_[s] + l;
                if (reach < nextEvent_[d]) {
                    nextEvent_[d] = reach;
                    changed = true;
                }
            }
        }
    }
    // Promise-based horizons: shard d may run to one tick short of the
    // earliest event any *other* shard could still send it. A shard
    // whose peers are far in the future (or reachable only by a long
    // round trip through itself) runs a correspondingly wide window —
    // hundreds of lookaheads when traffic is sparse — and the shard
    // holding the global minimum always gets windowEnd >= that event,
    // so every round makes progress.
    Tick max_end = 0;
    for (unsigned d = 0; d < shards_; ++d) {
        Tick h = maxTick;
        for (unsigned s = 0; s < shards_; ++s) {
            if (s == d || nextEvent_[s] == maxTick)
                continue;
            const Tick l = pairL_[std::size_t(s) * shards_ + d];
            const Tick reach = (nextEvent_[s] >= maxTick - l)
                                   ? maxTick
                                   : nextEvent_[s] + l;
            h = std::min(h, reach);
        }
        Tick end = (h == maxTick) ? maxTick : h - 1;
        end = std::min(end, ctrl_.limit);
        shardStates_[d].windowEnd = end;
        max_end = std::max(max_end, end);
        if (profiler_) {
            // Window width in ticks of actual work: 0 when the shard
            // has nothing to run this round.
            Tick width = 0;
            if (nextEvent_[d] <= end) {
                width = end - nextEvent_[d];
                if (width != maxTick)
                    ++width;
            }
            profiler_->noteWindowWidth(width);
        }
    }
    // A gap between the previous round's widest horizon and the next
    // event means the engine hopped over empty time in one plan — the
    // signature of a decoupled phase.
    if (profiler_ && ctrl_.haveWindow && global_next > ctrl_.prevMaxEnd
        && global_next - ctrl_.prevMaxEnd > 1)
        profiler_->noteWindowSkip();
    ctrl_.prevMaxEnd = max_end;
    ctrl_.haveWindow = true;
    // Flip the spill parity: producers of the coming round write the
    // other vector, freeing this round's for its consumer.
    ctrl_.parity ^= 1u;
    ++windows_;
}

void
ShardedEngine::executeShard(unsigned s)
{
    ShardState &st = shardStates_[s];
    const Tick end = st.windowEnd;
    if (st.queues.size() == 1) {
        // Single node: the queue's own run loop is the fast path (no
        // same-shard cross traffic can exist).
        st.queues[0]->run(end);
        return;
    }
    // Merged selection over the shard's queues: execute in global
    // (tick, priority) order, ties to the lower node, so a direct
    // same-shard delivery one tick out is observed at its exact time.
    st.rebuildTree();
    while (st.stepNext(end, /*batch=*/true)) {
    }
}

void
ShardedEngine::noteError()
{
    std::lock_guard<std::mutex> g(errMu_);
    if (!ctrl_.error)
        ctrl_.error = std::current_exception();
}

std::uint64_t
ShardedEngine::workerBody(unsigned worker, std::uint64_t start_ns)
{
    // One round: barrier (completion plans every shard's window) ->
    // drain own inbox -> execute own window -> publish the promises
    // for the next plan. Profiling (when attached and running) chains
    // one clock read per phase transition so the buckets tile this
    // thread's wall time with no gaps; the fused barrier wait lands in
    // the plan bucket (there is no separate sync barrier any more).
    ShardProfiler *prof =
        (profiler_ && profiler_->running()) ? profiler_ : nullptr;
    std::uint64_t t = start_ns;
    ShardState &st = shardStates_[worker];
    auto executedHere = [&]() {
        std::uint64_t n = 0;
        for (EventQueue *q : st.queues)
            n += q->eventsExecuted();
        return n;
    };
    for (;;) {
        barrier_->arriveAndWait();
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->notePlan(worker, t, n);
            t = n;
        }
        if (ctrl_.done)
            return t;
        // The promises published last round were consumed by the plan
        // we just crossed; start the new round's accounting.
        std::fill(st.postedMin.begin(), st.postedMin.end(), maxTick);
        std::size_t drained = 0;
        try {
            drained = drainShard(worker, /*both=*/false);
        } catch (...) {
            noteError();
        }
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->noteDrain(worker, t, n, drained);
            t = n;
        }
        const std::uint64_t before = prof ? executedHere() : 0;
        try {
            executeShard(worker);
        } catch (...) {
            noteError();
        }
        // Publish this shard's earliest pending tick for the next
        // plan; the barrier provides the happens-before edge.
        Tick local_next = maxTick;
        for (EventQueue *q : st.queues)
            local_next = std::min(local_next, q->nextEventTick());
        st.localNext = local_next;
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->noteExecute(worker, t, n, executedHere() - before);
            t = n;
        }
    }
}

Tick
ShardedEngine::runWindows(const std::function<bool()> *pred, Tick limit)
{
    // Every worker's profile starts here: the entry drain and thread
    // start-up are wait before the first plan, not unaccounted gaps.
    const std::uint64_t start_ns =
        (profiler_ && profiler_->running()) ? profiler_->nowNs() : 0;
    // Mailboxes may hold messages from a previous partial run (e.g. a
    // runSetup that stopped mid-window); deliver them first so the
    // first plan sees every pending event.
    drainAll();
    ctrl_ = Control{};
    ctrl_.limit = limit;
    ctrl_.pred = pred;
    for (unsigned s = 0; s < shards_; ++s) {
        ShardState &st = shardStates_[s];
        Tick local_next = maxTick;
        for (EventQueue *q : st.queues)
            local_next = std::min(local_next, q->nextEventTick());
        st.localNext = local_next;
        std::fill(st.postedMin.begin(), st.postedMin.end(), maxTick);
    }
    const unsigned workers = shards_;
    barrier_ =
        std::make_unique<SpinBarrier>(workers, [this] { planRound(); });
    // Each worker's last profiled instant; the joins publish them.
    std::vector<std::uint64_t> last(workers, start_ns);
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back([this, w, start_ns, &last] {
            last[w] = workerBody(w, start_ns);
        });
    last[0] = workerBody(0, start_ns);
    for (auto &t : threads)
        t.join();
    const std::uint64_t spins = barrier_->spinWakes();
    const std::uint64_t sleeps = barrier_->futexSleeps();
    barSpinWakes_ += spins;
    barSleeps_ += sleeps;
    barrier_.reset();
    if (profiler_ && profiler_->running()) {
        profiler_->addBarrierWaits(spins, sleeps);
        // The final barrier, the joins and the bookkeeping above are
        // wait for the run's end: charge them to the plan bucket, so
        // the buckets tile this whole call on every worker.
        const std::uint64_t end_ns = profiler_->nowNs();
        for (unsigned w = 0; w < workers; ++w)
            profiler_->notePlan(w, last[w], end_ns);
    }
    if (ctrl_.error)
        std::rethrow_exception(ctrl_.error);
    return ctrl_.hitLimit ? limit : now();
}

Tick
ShardedEngine::run(Tick limit)
{
    return runWindows(nullptr, limit);
}

Tick
ShardedEngine::runUntil(const std::function<bool()> &pred, Tick limit)
{
    return runWindows(&pred, limit);
}

Tick
ShardedEngine::runSetup(const std::function<bool()> &pred, Tick limit)
{
    // The canonical (tick, priority, node) minimum over the shards'
    // tree roots: each root already is its shard's minimum with ties
    // at the lower node, so the result is the global order no matter
    // how nodes map to shards — host-shared rendezvous state read
    // during setup observes the same history under any --shards value.
    auto earliest = [this]() -> ShardState & {
        auto rank = [](const ShardState &st) {
            return std::make_pair(st.tree.minKey(),
                                  st.nodes[st.tree.winner()]);
        };
        ShardState *best = &shardStates_[0];
        for (ShardState &st : shardStates_) {
            if (rank(st) < rank(*best))
                best = &st;
        }
        return *best;
    };
    drainAll();
    for (;;) {
        if (barrierHook_)
            barrierHook_();
        if (pred())
            break;
        for (ShardState &st : shardStates_)
            st.rebuildTree();
        const Tick next = earliest().tree.minKey().first;
        if (next == maxTick)
            break;
        if (next > limit)
            return limit;
        const Tick window_end = windowEndFor(next, limit);
        ++windows_;
        bool stop = false;
        // One firing per step: the predicate is checked after every
        // event, so a repeat must not run ahead of the other queues.
        while (earliest().stepNext(window_end, /*batch=*/false)) {
            if (pred()) {
                stop = true;
                break;
            }
        }
        drainAll();
        if (stop)
            break;
    }
    return now();
}

Tick
ShardedEngine::now() const
{
    // Max over *fired* ticks, not queue clocks: run(limit) parks an
    // idle queue's clock at its window end, which depends on how the
    // windows were shaped; the last fired tick does not.
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->lastFiredTick());
    return t;
}

std::uint64_t
ShardedEngine::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->eventsExecuted();
    return n;
}

std::uint64_t
ShardedEngine::eventsDispatched() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->eventsDispatched();
    return n;
}

std::uint64_t
ShardedEngine::pendingEvents() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->pendingEvents();
    for (const auto &b : boxes_)
        n += b->posted - b->delivered;
    return n;
}

std::uint64_t
ShardedEngine::crossPosts() const
{
    std::uint64_t n = 0;
    for (const auto &b : boxes_)
        n += b->posted;
    for (const auto &st : shardStates_)
        n += st.directPosts;
    return n;
}

} // namespace shrimp::sim
