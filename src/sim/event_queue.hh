/**
 * @file
 * Discrete-event simulation core.
 *
 * The entire simulator advances through a single EventQueue: components
 * schedule callbacks at absolute ticks and the queue executes them in
 * (tick, insertion-order) order, which makes every run deterministic.
 * Idle cycles are skipped, so simulated time can advance arbitrarily fast
 * when nothing is happening.
 *
 * Layout: a timing wheel of kWheelSize per-tick FIFO cells covers the
 * near future [now, now + kWheelSize).  Nearly every event in this
 * simulator lands there — pipe, cache, and DRAM latencies are tens of
 * ticks and queue backlogs a few thousand — so schedule() and the
 * drain loop are O(1) appends and pops instead of binary-heap sifts.
 * Events beyond the horizon (page-fault service, deep DRAM backlog)
 * go to a small overflow heap and migrate into the wheel when their
 * tick enters the window.
 *
 * Storage: callbacks live in slots of a chunked store.  Chunks are
 * fixed-size and never move, so a slot's address is stable while its
 * callback runs, even when that callback schedules more events and the
 * store grows.  Each slot carries one link index.  A pending slot's
 * link threads its wheel cell's FIFO list (a cell is a head and a tail
 * index, nothing more); a free slot's link threads the free list.
 * schedule() constructs the closure directly in its slot, and the
 * overflow heap holds slot indices, so no container operation moves a
 * callback object.
 *
 * Order equivalence with a (tick, insertion-seq) priority queue:
 *  - A cell's list order is global insertion order for that tick:
 *    time only advances, so all appends to tick T's cell happen in
 *    execution order, which is insertion order.  An append always goes
 *    to the tail and the drain always pops the head, so the list is
 *    FIFO; an event scheduled for the running tick by the running
 *    callback goes behind every entry already queued for that tick,
 *    and runs in this same drain.
 *  - Overflow entries for tick T were necessarily scheduled while T was
 *    outside the window (at some now0 <= T - kWheelSize), i.e. before
 *    any direct append to T (which requires now > T - kWheelSize).
 *    They migrate — in (when, seq) heap order — at the moment now
 *    first advances past T - kWheelSize, which precedes execution of
 *    any event that could append to T directly.  Hence migrated
 *    entries land ahead of all direct appends, completing the order.
 *  - Slot reuse cannot reorder anything: a slot joins the free list
 *    only after its callback has returned, and list order depends on
 *    link order alone, never on slot indices.
 */

#ifndef GVC_SIM_EVENT_QUEUE_HH
#define GVC_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace gvc
{

/**
 * A time-ordered queue of callbacks.  Ties at the same tick execute in
 * scheduling order (FIFO), which keeps pipelines well-defined without
 * explicit priorities.
 */
class EventQueue
{
  public:
    using Callback = gvc::Callback;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no events remain. */
    bool empty() const { return wheel_count_ == 0 && overflow_.empty(); }

    /** Number of events executed since construction/reset. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedule @p fn to run at absolute tick @p when.  A closure is
     * constructed directly in its slot; a Callback rvalue is moved in
     * as is.  Scheduling in the past is a simulator bug.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        if (when < now_)
            panic("EventQueue: scheduling event in the past");
        const std::uint32_t idx = allocSlot();
        Callback &cb = callbackAt(idx);
        if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "EventQueue: move a Callback into the queue");
            cb = std::move(fn);
        } else {
            cb.emplace(std::forward<F>(fn));
        }
        if (when - now_ < kWheelSize)
            append(when, idx);
        else
            overflow_.push(FarEntry{when, next_seq_++, idx});
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Execute events until the queue is empty or @p max_events have run.
     * @return number of events executed by this call.
     */
    std::uint64_t
    run(std::uint64_t max_events = ~std::uint64_t{0})
    {
        std::uint64_t n = 0;
        while (n < max_events && advance(~Tick{0})) {
            execOne();
            ++n;
        }
        return n;
    }

    /**
     * Execute all events with tick <= @p until, then advance time to
     * @p until even if the queue drained early.
     */
    void
    runUntil(Tick until)
    {
        while (advance(until))
            execOne();
        if (now_ < until) {
            now_ = until;
            migrate();
        }
    }

    /** Drop all pending events and rewind time to zero. */
    void
    reset()
    {
        wheel_.fill(Cell{});
        wheel_count_ = 0;
        overflow_ = {};
        chunks_.clear();
        used_slots_ = 0;
        free_head_ = kNil;
        now_ = 0;
        next_seq_ = 0;
        executed_ = 0;
    }

  private:
    /// Wheel horizon: covers every pipeline/cache/DRAM latency and the
    /// realistic DRAM-queue backlog; only fault service and extreme
    /// backlogs overflow.
    static constexpr unsigned kWheelBits = 12;
    static constexpr Tick kWheelSize = Tick{1} << kWheelBits;
    static constexpr Tick kWheelMask = kWheelSize - 1;

    /// Slots per chunk of the slot store.
    static constexpr unsigned kChunkBits = 10;
    static constexpr std::uint32_t kChunkSlots = std::uint32_t{1}
                                                 << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;

    /// End of a cell list or of the free list.
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Chunk
    {
        std::array<Callback, kChunkSlots> cb;
        /// Link of each slot: next in its cell list, or in the free list.
        std::array<std::uint32_t, kChunkSlots> next;
    };

    /// One wheel tick: a FIFO list of slots, kNil-terminated.
    struct Cell
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator>(const FarEntry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    Callback &
    callbackAt(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkBits]->cb[idx & kChunkMask];
    }

    std::uint32_t &
    linkAt(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkBits]->next[idx & kChunkMask];
    }

    /** An empty slot: recycled from the free list, else fresh. */
    std::uint32_t
    allocSlot()
    {
        if (free_head_ != kNil) {
            const std::uint32_t idx = free_head_;
            free_head_ = linkAt(idx);
            return idx;
        }
        if ((used_slots_ & kChunkMask) == 0)
            chunks_.push_back(std::make_unique<Chunk>());
        return used_slots_++;
    }

    /** Link slot @p idx at the tail of tick @p when's cell. */
    void
    append(Tick when, std::uint32_t idx)
    {
        linkAt(idx) = kNil;
        Cell &c = wheel_[std::size_t(when & kWheelMask)];
        if (c.tail == kNil)
            c.head = idx;
        else
            linkAt(c.tail) = idx;
        c.tail = idx;
        ++wheel_count_;
    }

    /** Pull every far event whose tick has entered the wheel window. */
    void
    migrate()
    {
        while (!overflow_.empty() &&
               overflow_.top().when - now_ < kWheelSize) {
            const FarEntry e = overflow_.top();
            overflow_.pop();
            append(e.when, e.slot);
        }
    }

    bool
    cellPending(Tick t) const
    {
        return wheel_[std::size_t(t & kWheelMask)].head != kNil;
    }

    /**
     * Advance @c now_ to the next pending event's tick, never past
     * @p limit.  @return true when an event is runnable at @c now_.
     */
    bool
    advance(Tick limit)
    {
        if (cellPending(now_))
            return true;
        while (true) {
            if (wheel_count_ == 0) {
                if (overflow_.empty() || overflow_.top().when > limit)
                    return false;
                now_ = overflow_.top().when; // All nearer cells empty.
            } else {
                if (now_ >= limit)
                    return false;
                ++now_;
            }
            migrate();
            if (cellPending(now_))
                return true;
        }
    }

    /** Pop and run the head of the current tick's cell. */
    void
    execOne()
    {
        Cell &c = wheel_[std::size_t(now_ & kWheelMask)];
        const std::uint32_t idx = c.head;
        c.head = linkAt(idx);
        if (c.head == kNil)
            c.tail = kNil;
        --wheel_count_;
        ++executed_;
        // Invoke in place: chunks never move, so the reference stays
        // valid when the callback schedules further events.  The slot
        // is recycled only after the call, so no new event can
        // overwrite the running callback.
        Callback &cb = callbackAt(idx);
        cb();
        cb = nullptr;
        linkAt(idx) = free_head_;
        free_head_ = idx;
    }

    std::array<Cell, std::size_t(kWheelSize)> wheel_;
    std::uint64_t wheel_count_ = 0; ///< Pending entries across all cells.
    std::priority_queue<FarEntry, std::vector<FarEntry>, std::greater<>>
        overflow_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint32_t used_slots_ = 0; ///< Slots ever handed out.
    std::uint32_t free_head_ = kNil;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace gvc

#endif // GVC_SIM_EVENT_QUEUE_HH
