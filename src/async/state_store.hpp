// Versioned state for the barrier-free asynchronous engine.
//
// Two pieces:
//  * ClockTable — tracks, per peer partition, the highest iteration count
//    ("clock") observed from that peer, and answers the bounded-staleness
//    admission question: may a worker start its k-th iteration yet?
//  * StateStore<V> — a ClockTable plus per-peer versioned key/value views.
//    Put() records a peer's value for a key at the sender's iteration clock
//    and returns the value it replaces, so applications can maintain
//    aggregates (sums, mins) incrementally as entries are overwritten. The
//    clock guards against out-of-order delivery: the fluid network model
//    completes flows by remaining bytes, so a sender's later (smaller) batch
//    can land before an earlier large one — for replacement semantics the
//    late stale record must be rejected, or it would overwrite the fresher
//    value and the sender's delta filter would never repair it.
//
// Each per-peer view is a sorted flat map: a strictly ascending key vector
// plus a parallel entry vector. Put() is one binary search, inserting at the
// sorted position on a key's first arrival (boundary keys first arrive
// mostly in ascending order, so that insert is usually an append). The
// layout is also the checkpoint order: SnapshotTo() walks each view
// linearly, so its byte image depends only on the stored entries, and
// RestoreFrom() rejects an image whose keys are not strictly ascending.
//
// Both carry an *epoch* alongside the clock for checkpoint/replay fault
// tolerance: a worker that crashes restarts from its last checkpoint with a
// bumped epoch and an iteration clock that rolled BACK, so its re-sent
// records carry (newer epoch, lower clock). Versions compare
// lexicographically by (epoch, clock): a newer epoch always wins — the clock
// guard alone would wrongly reject the restarted sender's fresh state as
// stale — while a record from a dead epoch is rejected even if its clock is
// higher, because the sender's post-restart trajectory supersedes it.
//
// Staleness semantics (SSP-style): with bound S, a worker may start its k-th
// iteration (1-based) only once every tracked peer has completed at least
// k - 1 - S iterations. The gate bounds *lag*, not *lead*: iteration k is
// guaranteed to see every peer's k-1-S updates, but fresher updates that
// happen to have arrived are visible too (the usual SSP contract). S = 0
// therefore gives synchronized rounds — no worker computes on state older
// than the previous round — which is the barrier-strength A/B baseline for
// the asynchronous modes. S = kUnboundedStaleness disables the gate entirely
// (pure asynchrony).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "serde/serde.hpp"

namespace asyncmr::async {

/// Staleness bound meaning "no bound": workers never wait for peers.
inline constexpr uint32_t kUnboundedStaleness =
    std::numeric_limits<uint32_t>::max();

/// Version-monotonicity contract for an applied StateStore write: a write
/// that replaces a stored entry must carry a version that is not older than
/// the one it replaces, under the lexicographic (epoch, clock) order — the
/// Put() guard is supposed to have rejected everything else. A violation
/// means stale out-of-order state overwrote fresher state, which the
/// sender's delta filter can never repair. Checked by Put on every replace
/// under AMR_AUDIT; a free function so negative tests can feed it corrupted
/// version pairs directly (tests/test_audit.cpp).
inline void AuditVersionAdvance(uint32_t prev_epoch, uint32_t prev_clock,
                                uint32_t epoch, uint32_t clock) {
  AUDIT_CHECK(epoch > prev_epoch ||
              (epoch == prev_epoch && clock >= prev_clock))
      << "state-store version regressed: stored (epoch " << prev_epoch
      << ", clock " << prev_clock << ") replaced by (epoch " << epoch
      << ", clock " << clock << ")";
}

class ClockTable {
 public:
  ClockTable() = default;
  explicit ClockTable(std::vector<uint32_t> peers)
      : peers_(std::move(peers)), clocks_(peers_.size(), 0) {
    uint32_t max_peer = 0;
    for (uint32_t p : peers_) max_peer = std::max(max_peer, p);
    // Peer -> index lookup replaces the old linear scan per observation
    // (which made all-to-all rounds quadratic per partition). When the peer
    // id space is dense (the all-to-all case) a direct table gives O(1) at
    // memory proportional to the peer list itself; for sparse topologies at
    // large P a dense table would cost O(max peer id) per partition, so fall
    // back to binary search over a sorted copy — O(log d), O(d) memory.
    if (!peers_.empty() &&
        static_cast<size_t>(max_peer) < 4 * peers_.size() + 64) {
      index_of_.assign(static_cast<size_t>(max_peer) + 1, kNotAPeer);
      for (size_t i = 0; i < peers_.size(); ++i) {
        AMR_CHECK(index_of_[peers_[i]] == kNotAPeer)
            << "duplicate peer partition " << peers_[i];
        index_of_[peers_[i]] = static_cast<uint32_t>(i);
      }
    } else {
      sorted_.reserve(peers_.size());
      for (size_t i = 0; i < peers_.size(); ++i) {
        sorted_.emplace_back(peers_[i], static_cast<uint32_t>(i));
      }
      std::sort(sorted_.begin(), sorted_.end());
      for (size_t i = 1; i < sorted_.size(); ++i) {
        AMR_CHECK(sorted_[i - 1].first != sorted_[i].first)
            << "duplicate peer partition " << sorted_[i].first;
      }
    }
  }

  /// Records that `peer` has completed `clock` iterations (monotone).
  /// Returns true if the observation advanced the peer's clock.
  bool Observe(uint32_t peer, uint32_t clock) {
    const size_t i = IndexOf(peer);
    if (clock <= clocks_[i]) return false;
    clocks_[i] = clock;
    return true;
  }

  /// Forcibly sets `peer`'s clock, allowing a decrease: a crashed peer
  /// resumed from a checkpoint at a lower iteration clock, and the staleness
  /// gate must see the rollback or it would admit iterations the SSP lag
  /// bound no longer justifies against that peer.
  void Reset(uint32_t peer, uint32_t clock) { clocks_[IndexOf(peer)] = clock; }

  /// Observed clocks, parallel to peers() — the mutable slice of this table,
  /// captured into worker checkpoints.
  const std::vector<uint32_t>& clock_values() const { return clocks_; }

  /// Restores the observed clocks from a checkpoint (peer list must match).
  void RestoreClockValues(const std::vector<uint32_t>& values) {
    AMR_CHECK_EQ(values.size(), clocks_.size());
    clocks_ = values;
  }

  uint32_t clock_of(uint32_t peer) const { return clocks_[IndexOf(peer)]; }

  /// Minimum observed clock; max uint32 when no peers are tracked.
  uint32_t min_clock() const {
    uint32_t m = std::numeric_limits<uint32_t>::max();
    for (uint32_t c : clocks_) m = std::min(m, c);
    return m;
  }

  /// Maximum observed clock; 0 when no peers are tracked.
  uint32_t max_clock() const {
    uint32_t m = 0;
    for (uint32_t c : clocks_) m = std::max(m, c);
    return m;
  }

  /// Bounded-staleness gate for starting the `iteration`-th (1-based)
  /// iteration under bound `staleness` (see file comment).
  bool AdmitsIteration(uint32_t iteration, uint32_t staleness) const {
    if (staleness == kUnboundedStaleness || peers_.empty()) return true;
    const int64_t need =
        static_cast<int64_t>(iteration) - 1 - static_cast<int64_t>(staleness);
    if (need <= 0) return true;
    return static_cast<int64_t>(min_clock()) >= need;
  }

  const std::vector<uint32_t>& peers() const { return peers_; }

  /// Index of `peer` in peers() — O(1) dense / O(log d) sparse; checks
  /// membership.
  size_t IndexOf(uint32_t peer) const {
    if (!index_of_.empty()) {
      AMR_CHECK(peer < index_of_.size() && index_of_[peer] != kNotAPeer)
          << "unknown peer partition " << peer;
      return index_of_[peer];
    }
    const auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(),
        std::pair<uint32_t, uint32_t>{peer, 0});
    AMR_CHECK(it != sorted_.end() && it->first == peer)
        << "unknown peer partition " << peer;
    return it->second;
  }

 private:
  static constexpr uint32_t kNotAPeer = std::numeric_limits<uint32_t>::max();

  std::vector<uint32_t> peers_;
  std::vector<uint32_t> clocks_;    // parallel to peers_
  std::vector<uint32_t> index_of_;  // dense: peer id -> index (empty if sparse)
  std::vector<std::pair<uint32_t, uint32_t>> sorted_;  // sparse: (peer, index)
};

template <typename V>
class StateStore {
 public:
  using Key = uint32_t;

  /// A stored value plus the (epoch, clock) version it was produced at.
  struct Entry {
    V value;
    uint32_t clock = 0;
    uint32_t epoch = 0;  // sender incarnation (bumped per restart)
  };

  /// One peer's entries as a sorted flat map: strictly ascending keys and a
  /// parallel entry vector. Iterate keys() and entries() together.
  class View {
   public:
    size_t size() const { return keys_.size(); }
    size_t count(Key key) const { return Find(key) < size() ? 1 : 0; }
    const Entry& at(Key key) const {
      const size_t i = Find(key);
      AMR_CHECK(i < size()) << "no state-store entry for key " << key;
      return entries_[i];
    }
    const std::vector<Key>& keys() const { return keys_; }
    const std::vector<Entry>& entries() const { return entries_; }

   private:
    friend class StateStore;

    size_t LowerBound(Key key) const {
      return static_cast<size_t>(
          std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
    }
    /// Position of `key`, or size() when absent.
    size_t Find(Key key) const {
      const size_t i = LowerBound(key);
      return i < size() && keys_[i] == key ? i : size();
    }

    std::vector<Key> keys_;
    std::vector<Entry> entries_;  // parallel to keys_
  };

  /// Outcome of a Put: whether the write took effect (false = rejected as a
  /// stale out-of-order delivery) and, when it replaced an entry, the
  /// previous value — so callers can adjust incremental aggregates.
  struct PutResult {
    bool applied = false;
    std::optional<V> replaced;
  };

  StateStore() = default;
  explicit StateStore(std::vector<uint32_t> peers)
      : clocks_(std::move(peers)), views_(clocks_.peers().size()) {}

  /// Records `value` as peer `from`'s state for `key`, produced at the
  /// sender's iteration `clock` in its incarnation `epoch`. Versions order
  /// lexicographically by (epoch, clock): a write older than the stored
  /// entry's version is rejected (see file comment); an equal version is
  /// accepted (idempotent redelivery), and a newer epoch is accepted even at
  /// a lower clock (the sender restarted from a checkpoint).
  PutResult Put(uint32_t from, Key key, V value, uint32_t clock,
                uint32_t epoch = 0) {
    View& view = views_[clocks_.IndexOf(from)];
    PutResult result;
    const size_t i = view.LowerBound(key);
    if (i == view.size() || view.keys_[i] != key) {
      view.keys_.insert(view.keys_.begin() + i, key);
      view.entries_.insert(view.entries_.begin() + i,
                           Entry{std::move(value), clock, epoch});
      result.applied = true;
      return result;
    }
    Entry& entry = view.entries_[i];
    if (epoch < entry.epoch || (epoch == entry.epoch && clock < entry.clock)) {
      return result;  // stale delivery (out-of-order or dead-epoch)
    }
    AMR_IF_AUDIT(AuditVersionAdvance(entry.epoch, entry.clock, epoch, clock);)
    result.applied = true;
    result.replaced = std::move(entry.value);
    entry.value = std::move(value);
    entry.clock = clock;
    entry.epoch = epoch;
    return result;
  }

  /// Removes every entry stored from `from`, calling fn(key, value) per
  /// removed entry in ascending key order so callers can unwind incremental
  /// aggregates. Used when `from` restarts: its stored state belongs to a
  /// dead epoch, and its replacement re-announces from its restored
  /// checkpoint.
  template <typename Fn>
  void DropPeer(uint32_t from, Fn&& fn) {
    View& view = views_[clocks_.IndexOf(from)];
    for (size_t i = 0; i < view.size(); ++i) {
      fn(view.keys_[i], view.entries_[i].value);
    }
    view.keys_.clear();
    view.entries_.clear();
  }

  void ObserveClock(uint32_t from, uint32_t clock) { clocks_.Observe(from, clock); }

  bool AdmitsIteration(uint32_t iteration, uint32_t staleness) const {
    return clocks_.AdmitsIteration(iteration, staleness);
  }

  const ClockTable& clocks() const { return clocks_; }

  const View& view(uint32_t from) const { return views_[clocks_.IndexOf(from)]; }

  size_t total_entries() const {
    size_t n = 0;
    for (const auto& view : views_) n += view.size();
    return n;
  }

  /// Serializes the mutable state (observed clocks + every per-peer view)
  /// into a worker checkpoint, each view in its ascending key order.
  /// Requires Serde<V>.
  void SnapshotTo(serde::Writer& w) const {
    serde::Serde<std::vector<uint32_t>>::Write(w, clocks_.clock_values());
    for (const View& view : views_) {
      w.WriteVarU64(view.size());
      for (size_t i = 0; i < view.size(); ++i) {
        const Entry& entry = view.entries_[i];
        w.WriteVarU64(view.keys_[i]);
        w.WriteVarU64(entry.clock);
        w.WriteVarU64(entry.epoch);
        serde::Serde<V>::Write(w, entry.value);
      }
    }
  }

  /// Restores the state written by SnapshotTo (the peer list is structural
  /// and must already match). An image whose keys are not strictly
  /// ascending within a view is rejected with DataLoss, and on any error
  /// the store keeps its previous state.
  Status RestoreFrom(serde::Reader& r) {
    std::vector<uint32_t> clock_values;
    AMR_RETURN_IF_ERROR(
        serde::Serde<std::vector<uint32_t>>::Read(r, clock_values));
    if (clock_values.size() != clocks_.peers().size()) {
      return Status::DataLoss("state-store checkpoint peer count mismatch");
    }
    std::vector<View> views(views_.size());
    for (View& view : views) {
      uint64_t n = 0;
      AMR_RETURN_IF_ERROR(r.ReadVarU64(n));
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t key = 0, clock = 0, epoch = 0;
        AMR_RETURN_IF_ERROR(r.ReadVarU64(key));
        AMR_RETURN_IF_ERROR(r.ReadVarU64(clock));
        AMR_RETURN_IF_ERROR(r.ReadVarU64(epoch));
        if (key > std::numeric_limits<Key>::max() ||
            (!view.keys_.empty() && key <= view.keys_.back())) {
          return Status::DataLoss(
              "state-store checkpoint keys not strictly ascending");
        }
        Entry entry;
        entry.clock = static_cast<uint32_t>(clock);
        entry.epoch = static_cast<uint32_t>(epoch);
        AMR_RETURN_IF_ERROR(serde::Serde<V>::Read(r, entry.value));
        view.keys_.push_back(static_cast<Key>(key));
        view.entries_.push_back(std::move(entry));
      }
    }
    clocks_.RestoreClockValues(clock_values);
    views_ = std::move(views);
    return Status::Ok();
  }

 private:
  ClockTable clocks_;
  std::vector<View> views_;  // parallel to clocks_.peers()
};

}  // namespace asyncmr::async
