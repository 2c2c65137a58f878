/**
 * @file
 * The discrete-event simulation core: one node's event queue ordered
 * by (tick, priority, stamp).
 *
 * The stamp is the intra-(tick, priority) tie-break. A standalone
 * queue stamps events with a plain insertion counter, which reproduces
 * classic insertion-order FIFO semantics. Under the engine
 * (sim/sharded.hh) every queue is given a stamp source id — its node —
 * and stamps become (source node << stampSeqBits) | per-source counter:
 * a *canonical* key assigned when the originating node decides to
 * schedule the event, not when the message happens to be drained into
 * the destination queue. Ties therefore execute in (source node,
 * per-source order), independent of shard count, mailbox batching, or
 * window boundaries — the property the engine's bit-identical
 * `--shards=1` vs `--shards=N` guarantee rests on.
 *
 * All timing in the simulator is expressed by scheduling callbacks on
 * this queue. Components never busy-wait; they schedule their next
 * action and return.
 *
 * The scheduling fast path is allocation-free and hash-free in the
 * steady state:
 *
 *  - Event records live in a slab with an explicit free list; firing
 *    or cancelling an event recycles its slot instead of touching the
 *    heap allocator.
 *  - Handles are generation-tagged slab indices, so deschedule() is a
 *    direct array probe (no id map) and a handle to a fired or
 *    recycled event is detected as stale, never dereferenced.
 *  - Event labels are static strings (`const char *`): callers pass
 *    string literals and no per-event std::string is ever built.
 *  - Callbacks are stored in EventCallback's inline small-buffer;
 *    only captures larger than EventCallback::inlineBytes fall back
 *    to the heap (counted, so benches can assert the steady state
 *    allocates nothing).
 *
 * Cancelled events leave a stale entry in the binary heap (detected by
 * generation mismatch); when stale entries exceed half the heap the
 * queue compacts, bounding both memory and comparator work under
 * cancel-heavy workloads.
 *
 * An *elided repeat* (scheduleRepeat) is a periodic event that fires
 * without dispatching anything: the kernel's spin-poll loop, whose
 * every iteration would otherwise be one callback that re-schedules
 * itself. A firing keeps the exact bookkeeping of that callback —
 * clock, executed count, the stamp its successor carries — so the
 * order of every other event and every counter are unchanged, and
 * materialize() later turns the pending firing into a real event
 * with the same key. Its cost is a few increments, not a dispatch.
 */

#ifndef SHRIMP_SIM_EVENT_QUEUE_HH
#define SHRIMP_SIM_EVENT_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/flight_recorder.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::sim
{

/**
 * Event priorities; lower numeric value runs first at the same tick.
 * Device completions run before CPU resumption so that software
 * observes hardware state changes that logically precede it.
 */
enum class EventPriority : int
{
    DeviceCompletion = 0,
    Default = 50,
    CpuResume = 60,
    Stats = 90,
};

/**
 * Type-erased `void()` callback with small-buffer-optimized inline
 * storage. Callables up to inlineBytes that are nothrow-movable are
 * stored in place; larger ones fall back to one heap allocation,
 * counted in heapFallbacks() so the fast path can prove it never
 * pays it.
 */
class EventCallback
{
  public:
    /** Inline capture budget; sized for the simulator's largest hot
     *  lambda (the kernel's cpu.op completion). */
    static constexpr std::size_t inlineBytes = 64;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>
                  && std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f) // NOLINT(google-explicit-constructor)
    {
        emplace(std::forward<F>(f));
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        SHRIMP_ASSERT(ops_, "invoking an empty EventCallback");
        ops_->invoke(buf_);
    }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** Process-wide count of captures too large for inline storage. */
    static std::uint64_t
    heapFallbacks()
    {
        return heapFallbacks_.load(std::memory_order_relaxed);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move construct into dst from src, destroying src. */
        void (*moveTo)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename F>
    struct InlineOps
    {
        static F *
        self(void *p)
        {
            return std::launder(reinterpret_cast<F *>(p));
        }

        static void invoke(void *p) { (*self(p))(); }

        static void
        moveTo(void *src, void *dst)
        {
            F *s = self(src);
            ::new (dst) F(std::move(*s));
            s->~F();
        }

        static void destroy(void *p) { self(p)->~F(); }

        static constexpr Ops ops{invoke, moveTo, destroy};
    };

    template <typename F>
    struct HeapOps
    {
        static F *
        ptr(void *p)
        {
            F *f = nullptr;
            std::memcpy(&f, p, sizeof f);
            return f;
        }

        static void invoke(void *p) { (*ptr(p))(); }

        static void
        moveTo(void *src, void *dst)
        {
            std::memcpy(dst, src, sizeof(F *));
        }

        static void destroy(void *p) { delete ptr(p); }

        static constexpr Ops ops{invoke, moveTo, destroy};
    };

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->moveTo(other.buf_, buf_);
            other.ops_ = nullptr;
        }
    }

    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (sizeof(D) <= inlineBytes
                      && alignof(D) <= alignof(std::max_align_t)
                      && std::is_nothrow_move_constructible_v<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &InlineOps<D>::ops;
        } else {
            D *heap = new D(std::forward<F>(f));
            std::memcpy(buf_, &heap, sizeof heap);
            ops_ = &HeapOps<D>::ops;
            // Relaxed: a plain counter read after the run; sharded
            // workers bump it concurrently.
            heapFallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;

    // shrimp-lint: shard-safe(monotonic diagnostics counter, relaxed atomic, never read by sim logic)
    inline static std::atomic<std::uint64_t> heapFallbacks_{0};
};

/**
 * A handle to a scheduled event, usable to deschedule it. Handles are
 * cheap value types: a slab index plus the slot's generation at
 * scheduling time. Descheduling an already-fired, already-cancelled,
 * or recycled event is detected by the generation tag and reported as
 * a no-op (deschedule returns false) — never a use-after-free.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    bool valid() const { return slotPlus1_ != 0; }

  private:
    friend class EventQueue;
    EventHandle(std::uint32_t slot_plus_1, std::uint32_t gen)
        : slotPlus1_(slot_plus_1), gen_(gen)
    {}
    std::uint32_t slotPlus1_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * The event queue. Holds the current simulated time, the event-record
 * slab, and a binary min-heap of (tick, priority, sequence) entries
 * referencing slab slots.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /**
     * Tick of the most recently fired event (0 before any fired).
     * Unlike now(), this never advances past events: run(limit) moves
     * now() to the limit even when the stretch was empty, which is
     * window-shape dependent under the sharded engine, while the last
     * fired tick is canonical — the engine's merged clock uses it.
     */
    Tick lastFiredTick() const { return lastFired_; }

    /** Per-source sequence bits in a stamp; the high bits carry the
     *  stamp source id (the owning node under the sharded engine). */
    static constexpr unsigned stampSeqBits = 44;

    /**
     * Brand this queue's stamps with an originating-source id (the
     * node id + engine convention). Must be set before any event is
     * scheduled; the default source 0 is the plain-counter
     * insertion order of a standalone queue.
     */
    void
    setStampSource(std::uint32_t id)
    {
        SHRIMP_ASSERT(nextSeq_ == 1, "stamp source set after events");
        stampBase_ = std::uint64_t(id) << stampSeqBits;
    }

    /**
     * Allocate the next canonical stamp for an event originating on
     * this queue's node. The sharded engine calls this at post() time
     * so a cross-node message carries its tie-break key with it.
     */
    std::uint64_t
    allocStamp()
    {
        SHRIMP_ASSERT(nextSeq_ < (std::uint64_t(1) << stampSeqBits),
                      "per-source stamp space exhausted");
        return stampBase_ | nextSeq_++;
    }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param name Static debug label (string literal); the queue
     *             stores the pointer, never copies the text.
     * @param fn Callback invoked when the event fires.
     * @param prio Intra-tick ordering class.
     * @return Handle that can cancel the event before it fires.
     */
    EventHandle
    schedule(Tick when, const char *name, EventCallback fn,
             EventPriority prio = EventPriority::Default)
    {
        return scheduleStamped(when, allocStamp(), name, std::move(fn),
                               prio);
    }

    /**
     * Schedule with a caller-provided stamp — the sharded engine's
     * delivery path for cross-node messages, whose stamp was allocated
     * on the *originating* node's queue at post() time.
     */
    EventHandle scheduleStamped(Tick when, std::uint64_t stamp,
                                const char *name, EventCallback fn,
                                EventPriority prio =
                                    EventPriority::Default);

    /** Schedule a callback @p delay ticks in the future. */
    EventHandle
    scheduleIn(Tick delay, const char *name, EventCallback fn,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(curTick_ + delay, name, std::move(fn), prio);
    }

    /**
     * Schedule an elided repeat: an event that fires at @p when,
     * when + period, when + 2 period, ... at priority @p prio and
     * dispatches nothing. Each firing stands in exactly for a callback
     * whose only action is to schedule its successor @p period ticks
     * later: it advances now() and lastFiredTick(), counts in
     * eventsExecuted() (and eventsElided(), not eventsDispatched()),
     * adds one to *@p tally when one is given, and allocates the stamp
     * its successor carries. step() takes one firing; run(),
     * runUntil() and stepWithin() take every consecutive firing that
     * precedes the queue's next other event and is within their limit
     * in one go. The repeat ends with materialize() or deschedule();
     * until then the queue never drains. Firings are not recorded in
     * the flight recorder.
     */
    EventHandle scheduleRepeat(Tick when, Tick period, const char *name,
                               EventPriority prio,
                               std::uint64_t *tally = nullptr);

    /**
     * End repeat @p h: its pending firing becomes an ordinary event
     * with the same (tick, priority, stamp) key that dispatches @p fn.
     * @return how many times the repeat fired.
     */
    std::uint64_t materialize(EventHandle h, EventCallback fn);

    /** Firings so far of the pending repeat @p h (0 if @p h is not
     *  one). */
    std::uint64_t
    repeatFirings(EventHandle h) const
    {
        if (!h.valid() || h.slotPlus1_ - 1 >= slots_.size())
            return 0;
        const Record &rec = slots_[h.slotPlus1_ - 1];
        return rec.inUse && rec.gen == h.gen_ ? rec.firings : 0;
    }

    /**
     * Cancel a pending event. Returns true if the event was pending
     * and is now cancelled; false if it had already fired, was
     * already cancelled, or the slot has been recycled.
     */
    bool deschedule(EventHandle handle);

    /** True if no events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /**
     * Tick of the earliest pending event (maxTick when none); drops
     * stale cancelled entries first. The sharded engine uses this to
     * plan conservative windows.
     */
    Tick nextEventTick() { return nextEventKey().first; }

    /** (tick, priority) of the earliest pending event;
     *  (maxTick, 0) when the queue is empty. */
    std::pair<Tick, std::int32_t> nextEventKey();

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return liveEvents_; }

    /**
     * Run until the queue drains or @p limit ticks is reached.
     * @return The tick at which execution stopped.
     */
    Tick run(Tick limit = maxTick);

    /**
     * Run until @p pred returns true (checked after each event) or the
     * queue drains or the limit is hit.
     */
    Tick runUntil(const std::function<bool()> &pred, Tick limit = maxTick);

    /** Execute exactly one event, if any (one firing of an elided
     *  repeat). Returns false if empty. */
    bool step();

    /**
     * Execute the next event if it is due by @p limit; an elided
     * repeat takes all of its firings that are due by @p limit and
     * precede the queue's next other event. Returns false when
     * nothing is due.
     */
    bool stepWithin(Tick limit);

    /** Total events executed over the queue's lifetime, elided repeat
     *  firings included. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Events whose callback was invoked (executed minus elided). */
    std::uint64_t eventsDispatched() const { return executed_ - elided_; }

    /** Elided repeat firings over the queue's lifetime. */
    std::uint64_t eventsElided() const { return elided_; }

    // ------------------------------------------- self-perf counters
    /** Events cancelled over the queue's lifetime. */
    std::uint64_t eventsCancelled() const { return cancelled_; }

    /** Stale-entry heap compactions performed. */
    std::uint64_t compactions() const { return compactions_; }

    /**
     * Container-growth allocations on the scheduling path (slab, heap
     * and free-list growth). Flat in the steady state: once the slab
     * and heap reach the workload's high-water mark, scheduling
     * allocates nothing.
     */
    std::uint64_t containerGrowths() const { return containerGrowths_; }

    /** Heap entries currently held, including stale (cancelled) ones. */
    std::size_t heapEntries() const { return heap_.size(); }

    /** Slab capacity in event records (the high-water mark). */
    std::size_t slabSlots() const { return slots_.size(); }

    /** Name this queue's flight recorder in post-mortem dumps. */
    void setFlightLabel(std::string label)
    {
        flight_.setLabel(std::move(label));
    }

    /** The per-queue ring of recently fired events. */
    const FlightRecorder &flightRecorder() const { return flight_; }

  private:
    /** One slab slot: a (possibly recycled) event record. */
    struct Record
    {
        Tick when = 0;
        /** Canonical stamp: (source id << stampSeqBits) | counter. */
        std::uint64_t seq = 0;
        const char *name = nullptr;
        EventCallback fn;
        /** Elided repeat: its period (0 for an ordinary event), its
         *  firings so far, and the caller's optional firing tally. */
        Tick period = 0;
        std::uint64_t firings = 0;
        std::uint64_t *tally = nullptr;
        std::uint32_t gen = 0;
        std::int32_t prio = 0;
        bool inUse = false;
    };

    /** Heap entry: ordering keys + slab reference; cancelled events
     *  are detected by a generation mismatch with the slot. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::int32_t prio;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** "Greater" over (when, prio, seq): std::push_heap et al. build
     *  a max-heap, so this puts the earliest event at the front. */
    struct After
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    bool stale(const HeapEntry &e) const
    {
        return slots_[e.slot].gen != e.gen;
    }

    /** Pop stale (cancelled) entries off the top of the heap. */
    void dropStale();

    /** Pop the front heap entry (must not be empty). */
    HeapEntry popEntry();

    /** Release a slot back to the free list, bumping its generation. */
    void freeSlot(std::uint32_t slot);

    /**
     * Fire the event referenced by a (valid, popped) heap entry. An
     * elided repeat keeps firing while its successor is due by
     * @p repeat_through and precedes every other pending event, then
     * goes back into the heap.
     */
    void fire(const HeapEntry &e, Tick repeat_through);

    /** Rebuild the heap without stale entries when they dominate. */
    void maybeCompact();

    Tick curTick_ = 0;
    Tick lastFired_ = 0;
    std::uint64_t nextSeq_ = 1;
    /** High stamp bits: the queue's source id (see setStampSource). */
    std::uint64_t stampBase_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t elided_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t compactions_ = 0;
    std::uint64_t containerGrowths_ = 0;
    std::size_t liveEvents_ = 0;
    std::size_t staleInHeap_ = 0;
    std::vector<Record> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<HeapEntry> heap_;
    FlightRecorder flight_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_EVENT_QUEUE_HH
