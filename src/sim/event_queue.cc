#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fbdp {

void
EventQueue::siftUp(std::size_t idx, Slot s)
{
    while (idx > 0) {
        const std::size_t parent = (idx - 1) / arity;
        if (!before(s, heap[parent]))
            break;
        heap[idx] = heap[parent];
        heap[idx].ev->heapIdx = static_cast<std::uint32_t>(idx);
        idx = parent;
    }
    heap[idx] = s;
    s.ev->heapIdx = static_cast<std::uint32_t>(idx);
}

void
EventQueue::siftDown(std::size_t idx, Slot s)
{
    const std::size_t n = heap.size();
    for (;;) {
        const std::size_t first = idx * arity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + arity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap[c], heap[best]))
                best = c;
        }
        if (!before(heap[best], s))
            break;
        heap[idx] = heap[best];
        heap[idx].ev->heapIdx = static_cast<std::uint32_t>(idx);
        idx = best;
    }
    heap[idx] = s;
    s.ev->heapIdx = static_cast<std::uint32_t>(idx);
}

void
EventQueue::removeAt(std::size_t idx)
{
    Slot moved = heap.back();
    heap.pop_back();
    if (idx == heap.size())
        return;  // removed the tail slot itself
    // Re-seat the tail element at the vacated slot.
    if (idx > 0 && before(moved, heap[(idx - 1) / arity]))
        siftUp(idx, moved);
    else
        siftDown(idx, moved);
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    fbdp_assert(when >= curTick,
                "scheduling event in the past: when=%llu now=%llu",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(curTick));
    // A fresh sequence number on every (re)schedule keeps same-tick
    // FIFO order identical to the historical lazy-deletion queue.
    const std::uint64_t seq = nextSeq++;
    ev->_when = when;
    ev->seq = seq;
    const Slot s{when, seq, ev, ev->_priority};
    if (ev->scheduled()) {
        ++stats.reschedules;
        const std::size_t idx = ev->heapIdx;
        if (idx >= Event::batchBase) {
            // Parked in the current dispatch batch: cancel the batch
            // entry and re-insert into the heap under the new key.
            batch[idx - Event::batchBase].ev = nullptr;
        } else {
            // The key can move either way (seq always grows, when may
            // shrink toward now): try up first, else down.
            if (idx > 0 && before(s, heap[(idx - 1) / arity]))
                siftUp(idx, s);
            else
                siftDown(idx, s);
            return;
        }
    } else {
        ++stats.schedules;
        if (heap.empty()) {
            // Empty-heap fast path: the hot schedule→dispatch ping-pong
            // of a single live event never touches the sift machinery.
            ev->heapIdx = 0;
            heap.push_back(s);
            if (stats.peakDepth == 0)
                stats.peakDepth = 1;
            return;
        }
    }
    heap.push_back(s);
    siftUp(heap.size() - 1, s);
    if (heap.size() > stats.peakDepth)
        stats.peakDepth = heap.size();
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled())
        return;
    ++stats.deschedules;
    const std::size_t idx = ev->heapIdx;
    ev->heapIdx = Event::invalidIdx;
    if (idx >= Event::batchBase) {
        batch[idx - Event::batchBase].ev = nullptr;
        return;
    }
    removeAt(idx);
}

/**
 * Move every remaining slot due at @p t from the heap into the batch.
 * Unlike the pop loop this is burst-size-independent: one linear
 * partition of the slot array, one sort of the extracted tail (the
 * strict before() order makes the result identical to popping), and
 * one Floyd rebuild of the survivors.
 */
void
EventQueue::drainSameTick(Tick t)
{
    const std::size_t firstLoose = batch.size();
    std::size_t n = heap.size();
    for (std::size_t i = 0; i < n;) {
        if (heap[i].when == t) {
            batch.push_back(heap[i]);
            heap[i] = heap[--n];  // swap-remove; recheck the mover
        } else {
            ++i;
        }
    }
    if (batch.size() == firstLoose)
        return;  // nothing more was due: the heap is untouched
    ++stats.batchDrains;
    heap.resize(n);
    std::sort(batch.begin() + static_cast<std::ptrdiff_t>(firstLoose),
              batch.end(),
              [](const Slot &a, const Slot &b) { return before(a, b); });
    // Everything popped before the switch sorts ahead of everything
    // drained here (the pops delivered the heap minimum each time),
    // so batch as a whole is in dispatch order.
    if (n > 1) {
        for (std::size_t idx = (n - 2) / arity + 1; idx-- > 0;)
            siftDown(idx, heap[idx]);
    }
    for (std::size_t i = 0; i < n; ++i)
        heap[i].ev->heapIdx = static_cast<std::uint32_t>(i);
    for (std::size_t b = firstLoose; b < batch.size(); ++b)
        batch[b].ev->heapIdx = Event::batchBase
            + static_cast<std::uint32_t>(b);
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;
    Event *top = heap[0].ev;
    curTick = heap[0].when;
    top->heapIdx = Event::invalidIdx;
    if (heap.size() == 1)
        heap.pop_back();  // single-event fast path: no sift, no copy
    else
        removeAt(0);
    ++stats.dispatched;
    top->invoke();
    return true;
}

void
EventQueue::run(Tick limit)
{
    Tick burstTick = maxTick;
    unsigned burstLen = 0;
    while (!heap.empty() && heap[0].when <= limit) {
        const Tick t = heap[0].when;
        curTick = t;
        if (t != burstTick) {
            burstTick = t;
            burstLen = 0;
        }
        if (++burstLen < burstSwitch || heap.size() == 1) {
            // Common case — short tick groups: dispatch straight off
            // the heap, exactly the legacy one-at-a-time walk.
            Event *ev = heap[0].ev;
            ev->heapIdx = Event::invalidIdx;
            if (heap.size() == 1)
                heap.pop_back();  // no sift, no copy
            else
                removeAt(0);
            ++stats.dispatched;
            ev->invoke();
            continue;
        }
        // Long same-tick burst (frame-boundary mailbox drains, wide
        // DIMM callbacks): popping pays a full sift-down per event.
        // Drain the whole remainder of the tick into the batch in one
        // partition-sort-rebuild pass, then dispatch from the batch.
        batch.clear();
        drainSameTick(t);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (!batch[i].ev)
                continue;  // descheduled / rescheduled mid-batch
            // Callbacks earlier in the batch may have scheduled new
            // events at this very tick that sort *before* the next
            // batch entry (e.g. a data return at prioData while CPU
            // advances wait at prioCpu).  Drain those from the heap
            // first so the total order matches step()-at-a-time.
            while (!heap.empty() && heap[0].when == t
                   && before(heap[0], batch[i]))
                step();
            Event *ev = batch[i].ev;
            if (!ev)
                continue;  // a drained event cancelled this entry
            ev->heapIdx = Event::invalidIdx;
            batch[i].ev = nullptr;
            ++stats.dispatched;
            ++stats.batchedDispatched;
            ev->invoke();
        }
        batch.clear();
        burstLen = 0;
    }
    if (curTick < limit && limit != maxTick)
        curTick = limit;
}

void
EventQueue::advanceTo(Tick t)
{
    if (t <= curTick)
        return;
    fbdp_assert(heap.empty() || heap[0].when >= t,
                "advanceTo(%llu) would skip an event due at %llu",
                static_cast<unsigned long long>(t),
                static_cast<unsigned long long>(heap[0].when));
    curTick = t;
}

} // namespace fbdp
