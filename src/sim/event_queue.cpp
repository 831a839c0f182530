#include "sim/event_queue.hpp"

namespace asyncmr::sim {

bool EventQueue::Cancel(EventId id) {
  const uint64_t seq = SeqOf(id);
  // Real ids always carry seq >= 1; seq 0 (e.g. the "no event" sentinel 0)
  // must not match a free slot's seq marker, or the slot would be freed
  // twice and pending() would underflow.
  if (seq == 0) return false;
  const uint32_t slot = SlotOf(id);
  if (slot >= slab_.size()) return false;
  if (slab_[slot].seq != seq) return false;  // fired/cancelled/reused
  // A far event leaves the heap now; an immediate's FIFO entry is skipped
  // (stale seq) when it surfaces. Either way the slot is reusable at once.
  if (slab_[slot].heap_pos != kNotInHeap) HeapRemove(slab_[slot].heap_pos);
  FreeSlot(slot);
  --live_;
  return true;
}

EventId EventQueue::Reschedule(EventId id, SimTime at) {
  const uint64_t seq = SeqOf(id);
  if (seq == 0) return 0;
  const uint32_t slot = SlotOf(id);
  if (slot >= slab_.size()) return 0;
  Slot& s = slab_[slot];
  if (s.seq != seq) return 0;  // fired/cancelled/reused
  AMR_CHECK(at >= now_) << "cannot reschedule into the past: at=" << at
                        << " now=" << now_;
  at += 0.0;  // normalize -0.0: key order must equal numeric order
  const uint64_t new_seq = next_seq_++;
  AMR_CHECK(new_seq < (uint64_t{1} << (64 - kSlotBits)))
      << "event seq exhausted";
  // Re-stamping the slot's seq invalidates the old id and any old FIFO
  // entry; the callback stays where it is.
  s.seq = new_seq;
  const EventId new_id = (new_seq << kSlotBits) | slot;
  const HeapKey key = MakeKey(at, new_id);
  if (at == now_) {
    // Retimed to now: the event joins the immediate FIFO behind everything
    // already there, exactly where a fresh Schedule would put it.
    if (s.heap_pos != kNotInHeap) HeapRemove(s.heap_pos);
    immediate_.push_back(key);
  } else if (s.heap_pos != kNotInHeap) {
    HeapResift(s.heap_pos, key);
  } else {
    HeapPush(key);  // was an immediate; its FIFO entry is now stale
  }
  return new_id;  // live_ unchanged: still one pending event
}

// --- indexed heap ------------------------------------------------------------

void EventQueue::HeapPush(HeapKey key) {
  heap_.push_back(key);
  SiftUp(heap_.size() - 1, key);
}

void EventQueue::HeapResift(size_t pos, HeapKey key) {
  if (pos > 0 && key < heap_[(pos - 1) / 2]) {
    SiftUp(pos, key);
  } else {
    SiftDown(pos, key);
  }
}

void EventQueue::HeapRemove(size_t pos) {
  slab_[SlotOf(heap_[pos])].heap_pos = kNotInHeap;
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) HeapResift(pos, last);
}

void EventQueue::SiftUp(size_t pos, HeapKey key) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!(key < heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void EventQueue::SiftDown(size_t pos, HeapKey key) {
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < key)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, key);
}

void EventQueue::AuditHeapIndex() const {
  for (size_t i = 0; i < heap_.size(); ++i) {
    const HeapKey k = heap_[i];
    AUDIT_CHECK(slab_[SlotOf(k)].heap_pos == i)
        << "heap index diverged: key at position " << i << " belongs to slot "
        << SlotOf(k) << ", which records position "
        << slab_[SlotOf(k)].heap_pos;
    AUDIT_CHECK(!IsStale(k)) << "heap holds a stale key at position " << i;
  }
}

// --- unified peek/pop --------------------------------------------------------

bool EventQueue::PeekEarliest(HeapKey* key, bool* from_far) {
  // Skip cancelled fronts lazily; the FIFO storage is recycled once drained.
  while (imm_head_ < immediate_.size() && IsStale(immediate_[imm_head_])) {
    ++imm_head_;
  }
  if (imm_head_ == immediate_.size() && imm_head_ != 0) {
    immediate_.clear();
    imm_head_ = 0;
  }
  const bool have_far = !heap_.empty();
  const bool have_imm = imm_head_ < immediate_.size();
  if (!have_imm && !have_far) return false;
  // Queued immediates all carry time == now_, which ties or beats every
  // far entry's time, so one key compare resolves the FIFO/seq order too.
  if (have_imm && (!have_far || immediate_[imm_head_] < heap_[0])) {
    *key = immediate_[imm_head_];
    *from_far = false;
  } else {
    *key = heap_[0];
    *from_far = true;
  }
  return true;
}

bool EventQueue::RunOne() {
  HeapKey e;
  bool from_far = false;
  if (!PeekEarliest(&e, &from_far)) return false;
  // Heap-index contract, checked before the pop's sift can rewrite any
  // position: the heap holds exactly the live far events, each indexed.
  AMR_IF_AUDIT(AuditHeapIndex());
  if (from_far) {
    HeapRemove(0);
  } else {
    ++imm_head_;
  }
  // Pop contracts: virtual time never runs backwards (the heap key order is
  // the clock), and the popped key's generation must match its slot — a
  // mismatch here means PeekEarliest leaked a stale entry, which would fire
  // a cancelled (or someone else's) callback.
  AUDIT_CHECK(TimeOf(e) >= now_)
      << "event queue popped into the past: event t=" << TimeOf(e)
      << " now=" << now_;
  AUDIT_CHECK(slab_[SlotOf(e)].seq == SeqOf(e))
      << "popped a stale key: slot " << SlotOf(e) << " holds seq "
      << slab_[SlotOf(e)].seq << ", key carries " << SeqOf(e);
  // Move the callback out and free the slot before firing: the callback
  // may schedule (reusing this slot) or grow the slab reentrantly.
  const uint32_t slot = SlotOf(e);
  EventFn fn = std::move(slab_[slot].fn);
  FreeSlot(slot);
  --live_;
  AUDIT_CHECK(live_ + free_slots_.size() == slab_.size())
      << "event slab slot accounting diverged: live=" << live_
      << " free=" << free_slots_.size() << " slab=" << slab_.size();
  now_ = TimeOf(e);
  ++fired_;
  fn();
  return true;
}

void EventQueue::RunUntilEmpty() {
  while (RunOne()) {
  }
}

void EventQueue::RunUntil(SimTime t) {
  AMR_CHECK(t >= now_);
  t += 0.0;  // normalize -0.0 so future now_ comparisons stay exact
  HeapKey e;
  bool from_far = false;
  while (PeekEarliest(&e, &from_far)) {
    if (TimeOf(e) > t) break;
    RunOne();
  }
  now_ = t;
}

}  // namespace asyncmr::sim
