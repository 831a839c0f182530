// Negative tests for the AMR_AUDIT contract families: each AUDIT_CHECK is
// tripped by deliberately corrupted input and must abort with its
// diagnostic. Positive twins pin that clean inputs do NOT trip. The whole
// suite is a no-op (skipped) when the contracts are compiled out — CI's
// Debug jobs build with -DAMR_AUDIT=ON, where every family must fire.
#include <gtest/gtest.h>

#include <vector>

#include "async/checkpoint.hpp"
#include "async/progress.hpp"
#include "async/state_store.hpp"
#include "common/check.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"

namespace {

using asyncmr::kAuditEnabled;

#define SKIP_WITHOUT_AUDIT() \
  if (!kAuditEnabled) GTEST_SKIP() << "built without -DAMR_AUDIT=ON"

// --- event queue -------------------------------------------------------------

TEST(AuditEventQueue, CleanRunDoesNotTrip) {
  asyncmr::sim::EventQueue q;
  int fired = 0;
  q.Schedule(1.0, [&] { ++fired; });
  q.ScheduleAfter(0.0, [&] { ++fired; });
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 2);
}

#ifdef AMR_AUDIT

TEST(AuditEventQueueDeathTest, PopIntoThePastTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        q.Schedule(1.0, [] {});
        q.TestOnlySetNow(5.0);  // pending event is now in the past
        q.RunOne();
      },
      "popped into the past");
}

TEST(AuditEventQueueDeathTest, SlotAccountingTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        q.Schedule(1.0, [] {});
        q.TestOnlyLeakFreeSlot();  // bogus free-list entry: slot 0 is live
        q.Schedule(2.0, [] {});    // alloc reuses the live slot
      },
      "slot accounting diverged");
}

TEST(AuditEventQueueDeathTest, HeapIndexTrips) {
  SKIP_WITHOUT_AUDIT();
  // Heap-index contract: every heap key's slot records the key's position.
  // Skew the root's recorded position; the next pop must catch it before
  // its sift rewrites the positions.
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        for (int i = 0; i < 5; ++i) q.Schedule(1.0 + i, [] {});
        q.TestOnlyCorruptHeapPos();
        q.RunOne();
      },
      "heap index diverged");
}

TEST(AuditEventQueue, CleanHeapChurnDoesNotTrip) {
  // Positive twin: pushes, in-place retimes in both directions, retimes to
  // and from the immediate FIFO, and cancels of root, inner and last keys,
  // all with the heap-index contract checked at every pop.
  asyncmr::sim::EventQueue q;
  uint64_t fired = 0;
  std::vector<asyncmr::sim::EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.Schedule(1.0 + i * 0.25, [&fired] { ++fired; }));
  }
  for (int i = 0; i < 200; i += 3) {
    ids[i] = q.Reschedule(ids[i], 60.0 - i * 0.1);
  }
  ids[1] = q.Reschedule(ids[1], 0.0);          // far -> immediate
  ids[1] = q.Reschedule(ids[1], 2.0);          // immediate -> far
  EXPECT_TRUE(q.Cancel(ids[0]));               // among the latest keys
  EXPECT_TRUE(q.Cancel(ids[2]));               // the root
  EXPECT_TRUE(q.Cancel(ids[199]));             // a late key
  q.RunUntil(20.0);
  for (int i = 100; i < 200; i += 5) EXPECT_TRUE(q.Cancel(ids[i]));
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 200u - 3u - 20u);
}

#endif  // AMR_AUDIT

// --- fluid network -----------------------------------------------------------

asyncmr::net::TopologyConfig SmallTopology() {
  asyncmr::net::TopologyConfig cfg;
  cfg.num_nodes = 4;
  cfg.nodes_per_rack = 2;
  return cfg;
}

TEST(AuditNetwork, CleanTransfersDoNotTrip) {
  asyncmr::sim::EventQueue q;
  asyncmr::net::Network net(q, asyncmr::net::Topology(SmallTopology()));
  int done = 0;
  net.Transfer(0, 1, 1 << 20, [&] { ++done; });
  net.Transfer(0, 2, 1 << 20, [&] { ++done; });
  net.Transfer(3, 3, 1 << 16, [&] { ++done; });
  q.RunUntilEmpty();
  EXPECT_EQ(done, 3);
#ifdef AMR_AUDIT
  net.AuditInvariants();  // whole-model sweep on the drained network
#endif
}

#ifdef AMR_AUDIT

TEST(AuditNetworkDeathTest, ByteConservationTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        asyncmr::net::Network net(q, asyncmr::net::Topology(SmallTopology()));
        net.Transfer(0, 1, 1 << 20, [] {});
        q.RunUntilEmpty();
        net.TestOnlyCorruptConservation();  // phantom injected byte
        net.AuditInvariants();
      },
      "byte conservation broken");
}

TEST(AuditNetworkDeathTest, NodeRateOversubscriptionTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        asyncmr::net::Network net(q, asyncmr::net::Topology(SmallTopology()));
        net.Transfer(0, 1, 1 << 24, [] {});
        // Run just until the payload enters the fluid model, then inflate
        // every active rate far past the NIC's fair share.
        while (net.active_flows() == 0 && q.RunOne()) {
        }
        net.TestOnlyInflateRates(100.0);
        net.AuditInvariants();
      },
      "oversubscribed");
}

#endif  // AMR_AUDIT

// --- Safra ledger balance ----------------------------------------------------

TEST(AuditSafra, BalancedLedgersDoNotTrip) {
  asyncmr::async::AuditSafraBalance(/*sent=*/5, /*received=*/3,
                                    /*in_flight=*/2);
  asyncmr::async::AuditSafraBalance(0, 0, 0);
}

TEST(AuditSafraDeathTest, ImbalanceTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(asyncmr::async::AuditSafraBalance(/*sent=*/3, /*received=*/1,
                                                 /*in_flight=*/1),
               "Safra ledger imbalance");
}

// --- token generation discipline ---------------------------------------------

TEST(AuditTokenGeneration, LiveGenerationDoesNotTrip) {
  asyncmr::async::AuditTokenGeneration(/*token_generation=*/0,
                                       /*live_generation=*/0);
  asyncmr::async::AuditTokenGeneration(7, 7);  // after regenerations
}

TEST(AuditTokenGenerationDeathTest, StaleGenerationCompletingTrips) {
  SKIP_WITHOUT_AUDIT();
  // A token whose generation trails the live counter completed a circuit: the
  // detector's stale-generation drop failed, and a written-off circuit is
  // about to double-terminate the run.
  EXPECT_DEATH(asyncmr::async::AuditTokenGeneration(/*token_generation=*/3,
                                                    /*live_generation=*/5),
               "stale token generation");
}

// --- node worker-ledger -------------------------------------------------------

TEST(AuditNodeLedger, MatchingCountsDoNotTrip) {
  asyncmr::async::AuditNodeLedger(/*resident_workers=*/4, /*ledger_count=*/4);
  asyncmr::async::AuditNodeLedger(0, 0);  // node with no residents
}

TEST(AuditNodeLedgerDeathTest, DriftedLedgerTrips) {
  SKIP_WITHOUT_AUDIT();
  // The incrementally-maintained per-node resident count disagrees with a
  // fresh placement scan: a node crash would fence the wrong worker set.
  EXPECT_DEATH(asyncmr::async::AuditNodeLedger(/*resident_workers=*/3,
                                               /*ledger_count=*/2),
               "node worker-ledger drift");
}

// --- state-store version monotonicity ----------------------------------------

TEST(AuditStateStore, AdvancingVersionsDoNotTrip) {
  asyncmr::async::AuditVersionAdvance(1, 5, 1, 5);  // idempotent redelivery
  asyncmr::async::AuditVersionAdvance(1, 5, 1, 6);  // clock advance
  asyncmr::async::AuditVersionAdvance(1, 5, 2, 0);  // restart: epoch wins
}

TEST(AuditStateStoreDeathTest, EpochRegressionTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(asyncmr::async::AuditVersionAdvance(2, 5, 1, 9),
               "version regressed");
}

TEST(AuditStateStoreDeathTest, ClockRegressionTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(asyncmr::async::AuditVersionAdvance(1, 5, 1, 4),
               "version regressed");
}

// --- checkpoint image round-trip ---------------------------------------------

asyncmr::serde::Buffer EncodedSnapshot() {
  asyncmr::async::WorkerSnapshot snap;
  snap.partition = 3;
  snap.epoch = 1;
  snap.iterations = 17;
  snap.unmerged_records = 42;
  snap.last_residual = 0.125;
  snap.peer_clocks = {16, 17, 15};
  snap.app_state = "opaque application payload";
  return asyncmr::serde::Encode(snap);
}

TEST(AuditCheckpoint, IntactImageDoesNotTrip) {
  asyncmr::async::AuditCheckpointImage(EncodedSnapshot());
}

TEST(AuditCheckpointDeathTest, CorruptImageTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::serde::Buffer corrupt = EncodedSnapshot();
        corrupt.AppendByte(0xFF);  // trailing garbage: decode must reject
        asyncmr::async::AuditCheckpointImage(corrupt);
      },
      "checkpoint image");
}

}  // namespace
