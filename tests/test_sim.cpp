// Unit tests: discrete-event kernel — ordering, determinism, cancellation.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace asyncmr::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  q.RunUntilEmpty();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.Schedule(2.0, [&] {
    q.ScheduleAfter(3.0, [&] { fired_at = q.now(); });
  });
  q.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  q.RunUntilEmpty();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Cancel(id);
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(5.0, [&] { order.push_back(5); });
  q.RunUntil(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilEmpty();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.ScheduleAfter(1.0, recurse);
  };
  q.ScheduleAfter(1.0, recurse);
  q.RunUntilEmpty();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, DeterministicTrace) {
  auto run = [] {
    EventQueue q;
    std::vector<double> times;
    for (int i = 0; i < 100; ++i) {
      q.Schedule(static_cast<double>((i * 37) % 50),
                 [&times, &q] { times.push_back(q.now()); });
    }
    q.RunUntilEmpty();
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueue, FiredCountExcludesCancelled) {
  EventQueue q;
  q.Schedule(1.0, [] {});
  const EventId id = q.Schedule(2.0, [] {});
  q.Cancel(id);
  q.RunUntilEmpty();
  EXPECT_EQ(q.fired_count(), 1u);
}

TEST(EventQueue, CancelFromInsideAnEvent) {
  // The network model cancels and reschedules completion events from within
  // running events (Rebalance); the queue must support that reentrancy.
  EventQueue q;
  std::vector<int> order;
  EventId victim = 0;
  q.Schedule(1.0, [&] {
    order.push_back(1);
    EXPECT_TRUE(q.Cancel(victim));
    q.Schedule(2.5, [&] { order.push_back(25); });
  });
  victim = q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 25, 3}));
}

TEST(EventQueue, CancelAlreadyFiredReturnsFalse) {
  EventQueue q;
  const EventId id = q.Schedule(1.0, [] {});
  q.RunUntilEmpty();
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(9999));  // unknown id
}

TEST(EventQueue, CancelKeepsFifoOrderOfSurvivors) {
  // Cancelling some events at a shared timestamp must not disturb the FIFO
  // tie-break among the survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.Schedule(7.0, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) q.Cancel(ids[i]);  // drop 0, 3, 6, 9
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
}

TEST(EventQueue, PendingCountExcludesCancelled) {
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilEmpty();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.RunOne());  // empty queue reports no work
}

TEST(EventQueue, RunUntilSkipsCancelledBoundaryEvents) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.Cancel(a);
  q.RunUntil(1.5);
  EXPECT_TRUE(order.empty());
  EXPECT_DOUBLE_EQ(q.now(), 1.5);
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, DeterministicTraceWithInterleavedCancels) {
  // The async engine relies on bit-identical event traces across runs even
  // under heavy cancel/reschedule churn (network rebalancing).
  auto run = [] {
    EventQueue q;
    std::vector<std::pair<double, int>> trace;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      const double at = static_cast<double>((i * 131) % 17);
      ids.push_back(q.Schedule(at, [&trace, &q, i] {
        trace.emplace_back(q.now(), i);
      }));
      if (i % 3 == 0 && i > 0) q.Cancel(ids[i / 2]);
    }
    q.RunUntilEmpty();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueue, DoubleCancelReturnsFalseAndPendingStaysCorrect) {
  // Regression: a second Cancel of the same id must be a no-op — the old
  // queue's cancelled-set bookkeeping could make pending() drift.
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilEmpty();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.fired_count(), 1u);
}

TEST(EventQueue, SlabReuseUnderCancelHeavyChurn) {
  // Slots are recycled across rounds of schedule/cancel churn; counters and
  // cancellation semantics must hold throughout.
  EventQueue q;
  uint64_t fired = 0;
  std::vector<EventId> ids;
  for (int round = 0; round < 100; ++round) {
    ids.clear();
    for (int i = 0; i < 50; ++i) {
      ids.push_back(q.ScheduleAfter(1.0 + 0.01 * i, [&fired] { ++fired; }));
    }
    EXPECT_EQ(q.pending(), 50u);
    for (int i = 0; i < 50; i += 2) EXPECT_TRUE(q.Cancel(ids[i]));
    for (int i = 0; i < 50; i += 2) EXPECT_FALSE(q.Cancel(ids[i]));
    EXPECT_EQ(q.pending(), 25u);
    q.RunUntil(q.now() + 2.0);
    EXPECT_EQ(q.pending(), 0u);
  }
  EXPECT_EQ(fired, 2500u);
  EXPECT_EQ(q.fired_count(), 2500u);
}

TEST(EventQueue, CancelOfSentinelZeroIdIsRejected) {
  // Regression: after slot 0 is freed its seq marker is 0; Cancel(0) — the
  // network model's "no event" sentinel — must not match it (that would
  // double-free the slot and underflow pending()).
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_EQ(q.pending(), 0u);
  int fired = 0;
  q.Schedule(1.0, [&] { ++fired; });
  q.Schedule(1.0, [&] { ++fired; });
  EXPECT_FALSE(q.Cancel(0));
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 2);  // both events kept distinct slots and fired
}

TEST(EventQueue, StaleIdOfReusedSlotDoesNotCancelNewEvent) {
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.Cancel(a));
  // The new event may land in the recycled slot; a's stale id must not
  // reach it.
  bool fired = false;
  q.Schedule(1.0, [&] { fired = true; });
  EXPECT_FALSE(q.Cancel(a));
  q.RunUntilEmpty();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ZeroDelayEventsPreserveGlobalFifoOrder) {
  // A zero-delay event scheduled from inside a running event still fires
  // after same-timestamp events that were scheduled earlier.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] {
    order.push_back(1);
    q.ScheduleAfter(0.0, [&] { order.push_back(2); });
  });
  q.Schedule(1.0, [&] { order.push_back(3); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueue, ZeroDelayEventsCanBeCancelled) {
  EventQueue q;
  bool fired = false;
  q.Schedule(1.0, [&] {
    const EventId imm = q.ScheduleAfter(0.0, [&] { fired = true; });
    EXPECT_TRUE(q.Cancel(imm));
    EXPECT_FALSE(q.Cancel(imm));
  });
  q.RunUntilEmpty();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ZeroDelayChainsDrainInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  std::function<void(int)> hop = [&](int depth) {
    order.push_back(depth);
    if (depth < 5) q.ScheduleAfter(0.0, [&hop, depth] { hop(depth + 1); });
  };
  q.Schedule(2.0, [&] { hop(0); });
  q.Schedule(2.0, [&] { order.push_back(100); });
  q.RunUntilEmpty();
  // The first chain hop interleaves with the pre-scheduled peer at t=2,
  // then the remaining hops drain in order.
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, FifoAcrossReschedules) {
  // Ids issued later always fire later at equal timestamps, even when the
  // earlier id at that timestamp was scheduled from inside an event.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] {
    q.Schedule(5.0, [&] { order.push_back(1); });  // id issued at t=1
  });
  q.Schedule(2.0, [&] {
    q.Schedule(5.0, [&] { order.push_back(2); });  // id issued at t=2
  });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleRetimesWithoutTouchingCallback) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.Schedule(5.0, [&] { order.push_back(1); });
  q.Schedule(3.0, [&] { order.push_back(2); });
  const EventId a2 = q.Reschedule(a, 1.0);
  ASSERT_NE(a2, 0u);
  EXPECT_EQ(q.pending(), 2u);  // a retime is not a new event
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.fired_count(), 2u);
}

TEST(EventQueue, RescheduleMatchesCancelPlusScheduleOrdering) {
  // A rescheduled event takes a fresh sequence number: among equal
  // timestamps it fires after everything scheduled before the retime,
  // exactly like Cancel + Schedule would.
  EventQueue q;
  std::vector<int> order;
  const EventId early = q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(4.0, [&] { order.push_back(2); });
  q.Reschedule(early, 4.0);
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleOfStaleIdFails) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.Schedule(1.0, [&] { ++fired; });
  const EventId a2 = q.Reschedule(a, 2.0);
  ASSERT_NE(a2, 0u);
  EXPECT_EQ(q.Reschedule(a, 3.0), 0u);   // old id died with the retime
  EXPECT_FALSE(q.Cancel(a));             // likewise for Cancel
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.Reschedule(a2, 4.0), 0u);  // already fired
  const EventId b = q.Schedule(5.0, [&] { ++fired; });
  ASSERT_TRUE(q.Cancel(b));
  EXPECT_EQ(q.Reschedule(b, 6.0), 0u);   // already cancelled
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RescheduleToNowUsesImmediatePath) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] {
    const EventId late = q.Schedule(9.0, [&] { order.push_back(2); });
    q.Schedule(1.0, [&] { order.push_back(1); });
    q.Reschedule(late, 1.0);  // lands on the zero-delay FIFO behind the above
  });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- differential test against a brute-force reference -----------------------
//
// ReferenceQueue is the queue contract with none of the machinery: a sorted
// map of live (time, seq) pairs to callbacks. It fires in (time, seq) order,
// a retime takes a fresh seq (Cancel + Schedule semantics), and stale ids
// fail Cancel/Reschedule. EventQueue — slab, indexed heap, immediate FIFO —
// must fire the byte-identical trace on every script.

using Trace = std::vector<std::pair<double, int>>;

class ReferenceQueue {
 public:
  double now() const { return now_; }
  size_t pending() const { return live_.size(); }

  uint64_t Schedule(double at, std::function<void()> fn) {
    EXPECT_GE(at, now_);
    const uint64_t seq = next_seq_++;
    live_.emplace(std::make_pair(at, seq), std::move(fn));
    time_of_.emplace(seq, at);
    return seq;
  }
  uint64_t ScheduleAfter(double delay, std::function<void()> fn) {
    return Schedule(now_ + delay, std::move(fn));
  }
  bool Cancel(uint64_t id) {
    const auto it = time_of_.find(id);
    if (it == time_of_.end()) return false;
    live_.erase({it->second, id});
    time_of_.erase(it);
    return true;
  }
  uint64_t Reschedule(uint64_t id, double at) {
    const auto it = time_of_.find(id);
    if (it == time_of_.end()) return 0;
    EXPECT_GE(at, now_);
    auto node = live_.extract({it->second, id});
    time_of_.erase(it);
    const uint64_t seq = next_seq_++;
    node.key() = {at, seq};
    live_.insert(std::move(node));
    time_of_.emplace(seq, at);
    return seq;
  }
  bool RunOne() {
    if (live_.empty()) return false;
    auto node = live_.extract(live_.begin());
    time_of_.erase(node.key().second);
    now_ = node.key().first;
    node.mapped()();
    return true;
  }
  void RunUntilEmpty() {
    while (RunOne()) {
    }
  }

 private:
  double now_ = 0.0;
  uint64_t next_seq_ = 1;
  std::map<std::pair<double, uint64_t>, std::function<void()>> live_;
  std::map<uint64_t, double> time_of_;
};

// Runs one script (a generic lambda taking the queue and the trace) on both
// queues and returns EventQueue's trace after checking they agree.
template <typename Script>
Trace ExpectMatchesReference(Script script) {
  Trace got, want;
  {
    EventQueue q;
    script(q, got);
    EXPECT_EQ(q.pending(), 0u);
  }
  {
    ReferenceQueue q;
    script(q, want);
  }
  EXPECT_EQ(got, want);
  return got;
}

// Callback that appends (now, tag) to the trace when it fires.
template <typename Queue>
auto Record(Queue& q, Trace& trace, int tag) {
  return [&q, &trace, tag] { trace.emplace_back(q.now(), tag); };
}

// A self-driving churn workload exercising every queue operation the
// simulation uses: far inserts at mixed horizons, zero-delay immediates,
// Cancel and Reschedule — including a far event retimed to now and an
// immediate retimed into the future, then sometimes cancelled. All
// randomness comes from a fixed Rng seed, so both queues execute the same op
// script as long as their firing orders agree — any divergence shows up in
// the recorded trace, as does any pending() disagreement (negative tags).
template <typename Queue>
void RunChurnScript(Queue& q, Trace& trace, uint64_t seed, int max_rounds) {
  Rng rng(seed);
  std::vector<uint64_t> open;  // far ids; some go stale as events fire
  int tag = 0;
  int rounds = 0;
  std::function<void()> driver = [&] {
    trace.emplace_back(q.now(), -static_cast<int>(q.pending()));
    for (int i = 0; i < 6; ++i) {
      open.push_back(q.Schedule(q.now() + rng.NextDouble(0.0, 12.0),
                                Record(q, trace, tag++)));
    }
    std::vector<uint64_t> imm;
    for (int i = 0; i < 2; ++i) {
      imm.push_back(q.ScheduleAfter(0.0, Record(q, trace, tag++)));
    }
    // Cancel/reschedule churn over the open set (ids may already be stale —
    // both queues must agree on the outcome either way).
    if (open.size() > 8) {
      q.Cancel(open[open.size() / 2]);
      const uint64_t nid = q.Reschedule(open[open.size() / 3],
                                        q.now() + rng.NextDouble(0.0, 6.0));
      if (nid != 0) open[open.size() / 3] = nid;
      const size_t k = rng.NextBounded(open.size());
      if (const uint64_t now_id = q.Reschedule(open[k], q.now()); now_id != 0) {
        open[k] = now_id;
      }
      const uint64_t fut =
          q.Reschedule(imm[0], q.now() + rng.NextDouble(0.0, 3.0));
      EXPECT_NE(fut, 0u);
      if (rng.NextBool(0.3)) {
        EXPECT_TRUE(q.Cancel(fut));
      } else {
        open.push_back(fut);
      }
    }
    if (++rounds < max_rounds) {
      q.ScheduleAfter(rng.NextDouble(0.01, 1.5), driver);
    }
  };
  q.ScheduleAfter(0.0, driver);
  q.RunUntilEmpty();
}

TEST(EventQueueDifferential, ChurnScriptMatchesReference) {
  for (uint64_t seed : {123u, 1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Trace t = ExpectMatchesReference(
        [seed](auto& q, Trace& trace) { RunChurnScript(q, trace, seed, 60); });
    EXPECT_GT(t.size(), 400u);
  }
}

TEST(EventQueueDifferential, LongChurnScriptMatchesReference) {
  // More rounds than events fire per round, so the heap grows deep enough
  // that retimes sift across many levels.
  const Trace t = ExpectMatchesReference(
      [](auto& q, Trace& trace) { RunChurnScript(q, trace, 99, 2000); });
  EXPECT_GT(t.size(), 14000u);
}

TEST(EventQueueDifferential, RetimeFarEventToNow) {
  const Trace t = ExpectMatchesReference([](auto& q, Trace& trace) {
    q.Schedule(1.0, [&q, &trace] {
      const uint64_t root = q.Schedule(3.0, Record(q, trace, 1));
      const uint64_t leaf = q.Schedule(5.0, Record(q, trace, 2));
      q.Schedule(4.0, Record(q, trace, 3));
      q.ScheduleAfter(0.0, Record(q, trace, 4));
      // Both leave the heap for the FIFO, behind the immediate already there.
      EXPECT_NE(q.Reschedule(leaf, q.now()), 0u);
      EXPECT_NE(q.Reschedule(root, q.now()), 0u);
      EXPECT_EQ(q.pending(), 4u);
    });
    q.RunUntilEmpty();
  });
  EXPECT_EQ(t, (Trace{{1.0, 4}, {1.0, 2}, {1.0, 1}, {4.0, 3}}));
}

TEST(EventQueueDifferential, RetimeImmediateIntoFuture) {
  const Trace t = ExpectMatchesReference([](auto& q, Trace& trace) {
    q.Schedule(1.0, [&q, &trace] {
      q.Schedule(2.0, Record(q, trace, 1));
      const uint64_t a = q.ScheduleAfter(0.0, Record(q, trace, 2));
      q.ScheduleAfter(0.0, Record(q, trace, 3));
      // The FIFO keeps a stale entry for `a`; it must be skipped, and `a`
      // fires at 2.0 after the event already scheduled there.
      const uint64_t a2 = q.Reschedule(a, 2.0);
      EXPECT_NE(a2, 0u);
      // Back to now: a fresh FIFO entry behind 3, from the heap this time.
      EXPECT_NE(q.Reschedule(q.Reschedule(a2, 1.5), 1.0), 0u);
      const uint64_t b = q.ScheduleAfter(0.0, Record(q, trace, 4));
      EXPECT_NE(q.Reschedule(b, 3.0), 0u);
      EXPECT_EQ(q.pending(), 4u);
    });
    q.RunUntilEmpty();
  });
  EXPECT_EQ(t, (Trace{{1.0, 3}, {1.0, 2}, {2.0, 1}, {3.0, 4}}));
}

TEST(EventQueueDifferential, CancelAfterRetime) {
  const Trace t = ExpectMatchesReference([](auto& q, Trace& trace) {
    const uint64_t a = q.Schedule(5.0, Record(q, trace, 1));
    const uint64_t b = q.Schedule(6.0, Record(q, trace, 2));
    q.Schedule(7.0, Record(q, trace, 3));
    const uint64_t a2 = q.Reschedule(a, 2.0);
    EXPECT_FALSE(q.Cancel(a));  // the retime retired the old id
    EXPECT_TRUE(q.Cancel(a2));
    EXPECT_FALSE(q.Cancel(a2));
    q.Schedule(1.0, [&q, b] {
      // Far -> now -> cancelled: the FIFO entry must be skipped.
      EXPECT_TRUE(q.Cancel(q.Reschedule(b, q.now())));
    });
    EXPECT_EQ(q.pending(), 3u);
    q.RunUntilEmpty();
  });
  EXPECT_EQ(t, (Trace{{7.0, 3}}));
}

TEST(EventQueueDifferential, CancelRootAndLastElement) {
  const Trace t = ExpectMatchesReference([](auto& q, Trace& trace) {
    // Ascending pushes leave the heap array sorted: the root holds t=1 and
    // the last slot t=8.
    std::vector<uint64_t> ids;
    for (int i = 1; i <= 8; ++i) {
      ids.push_back(q.Schedule(i, Record(q, trace, i)));
    }
    EXPECT_TRUE(q.Cancel(ids.back()));
    EXPECT_TRUE(q.Cancel(ids.front()));  // t=7 moves up from the last slot
    q.RunOne();                          // fires t=2, the new root
    // The array is now [3, 4, 6, 7, 5]: cancel the last slot (t=5), then
    // the root (t=3).
    EXPECT_TRUE(q.Cancel(ids[4]));
    EXPECT_TRUE(q.Cancel(ids[2]));
    EXPECT_EQ(q.pending(), 3u);
    q.RunUntilEmpty();
    // A lone event is both root and last element.
    const uint64_t only = q.Schedule(q.now() + 1.0, Record(q, trace, 99));
    EXPECT_TRUE(q.Cancel(only));
    EXPECT_EQ(q.pending(), 0u);
    q.RunUntilEmpty();
  });
  EXPECT_EQ(t, (Trace{{2.0, 2}, {4.0, 4}, {6.0, 6}, {7.0, 7}}));
}

TEST(EventQueueDifferential, RetimeEarlierAndLater) {
  const Trace t = ExpectMatchesReference([](auto& q, Trace& trace) {
    std::vector<uint64_t> ids;
    for (int i = 1; i <= 15; ++i) {
      ids.push_back(q.Schedule(10.0 * i, Record(q, trace, i)));
    }
    EXPECT_NE(q.Reschedule(ids[11], 5.0), 0u);    // leaf -> root (sift up)
    EXPECT_NE(q.Reschedule(ids[0], 200.0), 0u);   // root -> leaf (sift down)
    EXPECT_NE(q.Reschedule(ids[4], 35.0), 0u);    // inner, a little earlier
    EXPECT_NE(q.Reschedule(ids[2], 95.0), 0u);    // inner, later
    EXPECT_NE(q.Reschedule(ids[6], 70.0), 0u);    // same time, fresh seq
    EXPECT_EQ(q.pending(), 15u);
    q.RunUntilEmpty();
  });
  std::vector<int> order;
  for (const auto& [time, tag] : t) order.push_back(tag);
  EXPECT_EQ(order, (std::vector<int>{12, 2, 5, 4, 6, 7, 8, 9, 3, 10, 11, 13,
                                     14, 15, 1}));
}

TEST(EventQueueDifferential, EqualTimePileupKeepsFifoOrder) {
  // Every event at one timestamp: the heap order is decided by seq alone,
  // including interleaved cancels and same-time retimes.
  const Trace t = ExpectMatchesReference([](auto& q, Trace& trace) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 2000; ++i) {
      ids.push_back(q.Schedule(7.0, Record(q, trace, i)));
    }
    for (int i = 0; i < 2000; i += 7) q.Cancel(ids[i]);
    for (int i = 3; i < 2000; i += 11) q.Reschedule(ids[i], 7.0);
    q.RunUntilEmpty();
  });
  EXPECT_EQ(t.size(), 2000u - 286u);
}

}  // namespace
}  // namespace asyncmr::sim
