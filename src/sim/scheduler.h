// Discrete-event scheduler — indexed 4-ary heap with true cancellation.
//
// The heap is a flat array of 24-byte entries carrying the (time, sequence)
// sort key plus a slot index, so sift comparisons touch only contiguous heap
// memory. A fan-out of four halves the tree depth of a binary heap and keeps
// each child group nearly within one cache line. Sequence numbers give FIFO
// ordering for simultaneous events, which together with integer SimTime
// makes runs fully deterministic.
//
// Per-event state is split structure-of-arrays style: the hot bookkeeping
// (generation + heap position, 8 bytes) lives in a dense vector that sift
// operations write through, while the 64-byte callbacks live out-of-line in
// fixed-size chunks whose addresses never change — growing the pool never
// runs a pending callback's move constructor.
//
// EventIds are generation-checked handles: the slot index in the high 32
// bits, the slot's generation in the low 32. Each slot records its heap
// position, so cancel() removes the event from the heap immediately
// (O(log n), no tombstones, no lazy skip) and bumps the generation so stale
// handles — including the id of an event that already fired — are no-ops.
//
// Callbacks are InlineFunction<void()>: every typical capture list is stored
// inline, so schedule/fire performs zero heap allocations once the pool has
// warmed up. The schedule/fire/cancel path is defined inline in this header:
// event dispatch bounds whole-stack simulation rate, and the call sites
// (run loops, protocol timers) only optimize it when they can see through
// it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/assert.h"
#include "sim/inline_callback.h"
#include "sim/sim_time.h"

namespace muzha {

// Opaque event handle: (slot << 32) | generation. Generations start at 1 and
// skip 0 on wrap, so a valid id is never kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

using EventCallback = InlineFunction<void()>;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() {
    // Only events still in the heap hold live callbacks; every other
    // constructed slot is null, and a null InlineFunction's destructor is a
    // no-op, so skip them rather than walking the whole pool.
    for (const HeapEntry& e : heap_) slot_cb(e.slot).~EventCallback();
  }

  SimTime now() const { return now_; }

  // Schedules `cb` to run at absolute time `t` (must be >= now()). Accepts
  // any void() callable and constructs it directly into the event slot — an
  // explicit EventCallback argument works too and is moved.
  template <typename F>
  EventId schedule_at(SimTime t, F&& cb) {
    MUZHA_ASSERT(t >= now_, "cannot schedule an event in the past");
    const std::uint32_t slot = alloc_slot();
    EventCallback& dst = slot_cb(slot);
    dst = std::forward<F>(cb);
    MUZHA_ASSERT(dst, "event callback must be callable");
    const HeapEntry e{t, next_seq_++, slot};
    heap_.push_back(e);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), e);
    return make_id(slot, meta_[slot].gen);
  }

  // Schedules `cb` to run `delay` from now (delay must be >= 0).
  template <typename F>
  EventId schedule_in(SimTime delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a pending event: removes it from the heap eagerly and recycles
  // its slot. Cancelling an already-fired or invalid id is a no-op (the
  // generation check rejects stale handles), so callers may cancel
  // unconditionally.
  void cancel(EventId id) {
    if (id == kInvalidEventId) return;
    const std::uint32_t slot = slot_of(id);
    if (slot >= meta_.size()) return;
    MUZHA_DCHECK(gen_of(id) != 0,
                 "EventId with generation 0: forged or corrupted handle");
    SlotMeta& m = meta_[slot];
    if (m.gen != gen_of(id) || m.heap_pos == kNotInHeap) return;
    MUZHA_DCHECK(m.heap_pos < heap_.size() && heap_[m.heap_pos].slot == slot,
                 "slot/heap cross-link broken: cancelled EventId points at a "
                 "recycled slot (use-after-free of the handle)");
    remove_from_heap(slot);
    slot_cb(slot) = nullptr;
    release_slot(slot);
  }

  // Runs events until the queue drains or `t_end` is passed. Events at
  // exactly `t_end` are executed. Returns the number of events executed.
  std::uint64_t run_until(SimTime t_end) {
    std::uint64_t n = 0;
    while (!heap_.empty()) {
      if (heap_[0].time > t_end) {
        now_ = t_end;
        return n;
      }
      step();
      ++n;
    }
    if (now_ < t_end && t_end != SimTime::max()) now_ = t_end;
    return n;
  }

  // Runs until the queue drains.
  std::uint64_t run() { return run_until(SimTime::max()); }

  // Executes at most one pending event. Returns false if the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_[0];
    MUZHA_ASSERT(top.time >= now_, "event heap yielded a past event");
    MUZHA_DCHECK(meta_[top.slot].heap_pos == 0,
                 "heap top does not cross-link back to its slot");
    MUZHA_DCHECK(static_cast<bool>(slot_cb(top.slot)),
                 "firing slot holds no callback (double fire or slot "
                 "recycling bug)");
    now_ = top.time;
    // Move the callback out and retire the slot before invoking: the
    // callback may schedule new events (growing the pool) or cancel its
    // own — now stale — id.
    EventCallback cb = std::move(slot_cb(top.slot));
    release_slot(top.slot);
    const HeapEntry filler = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, filler);
    ++executed_;
    cb();
    return true;
  }

  // Pre-sizes the pool, heap and free list for `n` concurrent events so the
  // steady state performs no vector growth.
  void reserve(std::size_t n);

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  // Callbacks are pooled in fixed-size chunks so growth never moves a live
  // callback and slot addresses stay stable across scheduling.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  // Heap entries carry the full sort key so sifting never dereferences the
  // pool; `slot` points at the callback and bookkeeping.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct SlotMeta {
    std::uint32_t gen = 1;
    std::uint32_t heap_pos = kNotInHeap;
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  // True when `a` fires strictly before `b`.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  EventCallback& slot_cb(std::uint32_t slot) {
    return *std::launder(reinterpret_cast<EventCallback*>(
        chunks_[slot >> kChunkShift].get() +
        sizeof(EventCallback) * (slot & (kChunkSlots - 1))));
  }

  void place(std::uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    meta_[e.slot].heap_pos = pos;
  }

  // Hole-style sifts: `e` is the moving entry, written once at its final
  // position. 4-ary layout: children of i are 4i+1..4i+4, parent is
  // (i-1)/4.
  void sift_up(std::uint32_t pos, const HeapEntry& e) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 4;
      if (!earlier(e, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  void sift_down(std::uint32_t pos, const HeapEntry& e) {
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first_child = 4 * pos + 1;
      if (first_child >= n) break;
      std::uint32_t best = first_child;
      const std::uint32_t last_child =
          first_child + 3 < n - 1 ? first_child + 3 : n - 1;
      for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, e);
  }

  std::uint32_t alloc_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return grow_pool();
  }
  std::uint32_t grow_pool();  // cold path: appends a slot (maybe a chunk)

  void release_slot(std::uint32_t slot) {
    SlotMeta& m = meta_[slot];
    m.heap_pos = kNotInHeap;
    // Bump the generation so outstanding handles to this slot go stale;
    // generation 0 is skipped so a live id is never kInvalidEventId.
    if (++m.gen == 0) m.gen = 1;
    free_.push_back(slot);
  }

  void remove_from_heap(std::uint32_t slot) {
    const std::uint32_t pos = meta_[slot].heap_pos;
    const HeapEntry filler = heap_.back();
    heap_.pop_back();
    if (filler.slot != slot) {
      // The hole filler may need to move either way relative to `pos`.
      sift_down(pos, filler);
      if (meta_[filler.slot].heap_pos == pos) sift_up(pos, filler);
    }
  }

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<SlotMeta> meta_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;  // raw slot storage
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::vector<HeapEntry> heap_;      // 4-ary min-heap
};

}  // namespace muzha
