#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

namespace shrimp::sim
{

EventHandle
EventQueue::scheduleStamped(Tick when, std::uint64_t stamp,
                            const char *name, EventCallback fn,
                            EventPriority prio)
{
    if (when < curTick_) {
        panic("event '", name ? name : "?",
              "' scheduled in the past: when=", when, " now=", curTick_);
    }

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        if (slots_.size() == slots_.capacity())
            ++containerGrowths_;
        slots_.emplace_back();
    }

    Record &rec = slots_[slot];
    rec.when = when;
    rec.seq = stamp;
    rec.name = name;
    rec.fn = std::move(fn);
    rec.period = 0;
    rec.firings = 0;
    rec.tally = nullptr;
    rec.prio = static_cast<std::int32_t>(prio);
    rec.inUse = true;

    if (heap_.size() == heap_.capacity())
        ++containerGrowths_;
    heap_.push_back(HeapEntry{rec.when, rec.seq, rec.prio, slot, rec.gen});
    std::push_heap(heap_.begin(), heap_.end(), After{});
    ++liveEvents_;
    return EventHandle(slot + 1, rec.gen);
}

EventHandle
EventQueue::scheduleRepeat(Tick when, Tick period, const char *name,
                           EventPriority prio, std::uint64_t *tally)
{
    SHRIMP_ASSERT(period > 0, "elided repeat '", name ? name : "?",
                  "' needs a nonzero period");
    EventHandle h = schedule(when, name, EventCallback(), prio);
    Record &rec = slots_[h.slotPlus1_ - 1];
    rec.period = period;
    rec.tally = tally;
    return h;
}

std::uint64_t
EventQueue::materialize(EventHandle h, EventCallback fn)
{
    SHRIMP_ASSERT(h.valid() && h.slotPlus1_ - 1 < slots_.size(),
                  "materializing an invalid handle");
    Record &rec = slots_[h.slotPlus1_ - 1];
    SHRIMP_ASSERT(rec.inUse && rec.gen == h.gen_ && rec.period != 0,
                  "materializing something that is not a pending repeat");
    // The heap entry already carries the pending firing's key; only
    // the record changes from repeat to ordinary event.
    rec.period = 0;
    rec.tally = nullptr;
    rec.fn = std::move(fn);
    return std::exchange(rec.firings, 0);
}

bool
EventQueue::deschedule(EventHandle handle)
{
    if (!handle.valid())
        return false;
    const std::uint32_t slot = handle.slotPlus1_ - 1;
    if (slot >= slots_.size())
        return false;
    Record &rec = slots_[slot];
    if (!rec.inUse || rec.gen != handle.gen_)
        return false; // fired, cancelled, or recycled: detected no-op
    rec.fn.reset();
    freeSlot(slot);
    --liveEvents_;
    ++cancelled_;
    // The heap entry stays behind with a now-mismatched generation;
    // dropStale() discards it, or maybeCompact() sweeps it early.
    ++staleInHeap_;
    maybeCompact();
    return true;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &rec = slots_[slot];
    rec.inUse = false;
    rec.name = nullptr;
    ++rec.gen;
    if (freeSlots_.size() == freeSlots_.capacity())
        ++containerGrowths_;
    freeSlots_.push_back(slot);
}

void
EventQueue::dropStale()
{
    while (!heap_.empty() && stale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        heap_.pop_back();
        SHRIMP_ASSERT(staleInHeap_ > 0, "stale-entry accounting underflow");
        --staleInHeap_;
    }
}

EventQueue::HeapEntry
EventQueue::popEntry()
{
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    HeapEntry e = heap_.back();
    heap_.pop_back();
    return e;
}

void
EventQueue::maybeCompact()
{
    if (staleInHeap_ <= 64 || staleInHeap_ * 2 <= heap_.size())
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const HeapEntry &e) {
                                   return stale(e);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), After{});
    staleInHeap_ = 0;
    ++compactions_;
}

void
EventQueue::fire(const HeapEntry &e, Tick repeat_through)
{
    Record &rec = slots_[e.slot];
    SHRIMP_ASSERT(rec.when >= curTick_, "time went backwards");
    if (rec.period != 0) {
        // An elided repeat: each firing is the callback that only
        // re-schedules itself, so it moves the clock, counts, and
        // allocates its successor's stamp; nothing else. Successive
        // firings that stay ahead of every other pending event (and
        // within the caller's limit) are taken here without going
        // back through the heap.
        dropStale();
        const HeapEntry *other = heap_.empty() ? nullptr : &heap_.front();
        HeapEntry next = e;
        std::uint64_t n = 0;
        do {
            curTick_ = next.when;
            ++n;
            SHRIMP_ASSERT(next.when <= maxTick - rec.period,
                          "elided repeat ran past the end of time");
            next.when += rec.period;
            next.seq = allocStamp();
        } while (next.when <= repeat_through
                 && (!other || After{}(*other, next)));
        lastFired_ = curTick_;
        executed_ += n;
        elided_ += n;
        rec.firings += n;
        if (rec.tally)
            *rec.tally += n;
        rec.when = next.when;
        rec.seq = next.seq;
        heap_.push_back(next);
        std::push_heap(heap_.begin(), heap_.end(), After{});
        return;
    }
    curTick_ = rec.when;
    lastFired_ = rec.when;
    flight_.record(rec.when, rec.name, rec.prio);
    // Move the callback out so the slot can be recycled even if the
    // callback schedules further events.
    EventCallback fn = std::move(rec.fn);
    rec.fn.reset();
    freeSlot(e.slot);
    --liveEvents_;
    ++executed_;
    fn();
}

std::pair<Tick, std::int32_t>
EventQueue::nextEventKey()
{
    dropStale();
    if (heap_.empty())
        return {maxTick, 0};
    return {heap_.front().when, heap_.front().prio};
}

bool
EventQueue::step()
{
    dropStale();
    if (heap_.empty())
        return false;
    // A repeat's successor is never due by tick 0: one firing.
    fire(popEntry(), 0);
    return true;
}

bool
EventQueue::stepWithin(Tick limit)
{
    dropStale();
    if (heap_.empty() || heap_.front().when > limit)
        return false;
    fire(popEntry(), limit);
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (liveEvents_ > 0) {
        dropStale();
        if (heap_.empty())
            break;
        if (heap_.front().when > limit) {
            // The front event stays pending; time advances to the limit.
            curTick_ = limit;
            return curTick_;
        }
        fire(popEntry(), limit);
    }
    return curTick_;
}

Tick
EventQueue::runUntil(const std::function<bool()> &pred, Tick limit)
{
    while (liveEvents_ > 0 && !pred()) {
        dropStale();
        if (heap_.empty())
            break;
        if (heap_.front().when > limit) {
            curTick_ = limit;
            return curTick_;
        }
        fire(popEntry(), limit);
    }
    return curTick_;
}

} // namespace shrimp::sim
