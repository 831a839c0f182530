// TraceSink: records simulation activity as Chrome trace-event JSON
// (the format chrome://tracing and Perfetto load directly), stamped with
// *virtual* DES time — the timeline the paper reasons about, not host time.
//
// The sink is a flat append-only event log: instrumented code (async engine,
// fluid network, cluster control plane, checkpoint store) pushes fixed-size
// records with static-string names and at most two numeric args, so a
// recording run stays allocation-light and — because every record is
// appended from a DES callback — the log is bit-deterministic for a given
// seed. Serialization to JSON happens once, at WriteFile/ToJson.
//
// Disabled tracing must be genuinely free: instrumentation sites hold a
// `TraceSink*` and guard every record behind a null check, so the
// no-observability path costs one predictable branch (enforced by the
// micro_des budget and the byte-identical-output tests).
//
// Row layout (see obs.hpp for the pid constants):
//   pid kPidWorkers  — one tid per partition: iteration spans phased by
//                      state (compute / keepalive / wait-slot / gate-blocked
//                      / down / recovering), checkpoint + crash instants,
//                      and flow-arrow endpoints (sender -> receiver by id).
//   pid kPidNetwork  — one tid per node: fluid-model flow transfer spans.
//   pid kPidControl  — tid 0: termination-token circuits; tid = node/partition:
//                      slot-wait and checkpoint write-behind spans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace asyncmr::obs {

class TraceSink {
 public:
  /// Optional numeric argument attached to an event. `name` must be a
  /// string literal (or otherwise outlive the sink) — args are not copied.
  /// Plain aggregate, no default member initializers: GCC cannot parse a
  /// `{}` default argument of the enclosing class otherwise (PR 88165);
  /// a value-initialized Arg is {nullptr, 0.0} all the same.
  struct Arg {
    const char* name;
    double value;
  };

  enum class Phase : uint8_t {
    kSpan,       // "X": complete event [ts, ts+dur)
    kInstant,    // "i": point event
    kFlowBegin,  // "s": flow arrow tail (binds by id)
    kFlowEnd,    // "f": flow arrow head (binds by id)
  };

  /// One recorded event. Public so tests can assert on the log without
  /// re-parsing the JSON.
  struct Event {
    const char* name = nullptr;
    const char* cat = nullptr;
    Phase phase = Phase::kInstant;
    uint32_t pid = 0;
    uint32_t tid = 0;
    double ts_s = 0.0;   // virtual seconds
    double dur_s = 0.0;  // spans only
    uint64_t id = 0;     // flow binding id
    Arg args[2] = {};
  };

  /// Records a completed interval [start_s, end_s). `name` and `cat` must be
  /// string literals (stored by pointer).
  void Span(const char* name, const char* cat, uint32_t pid, uint32_t tid,
            double start_s, double end_s, Arg a = {}, Arg b = {});

  /// Records a point event at ts_s.
  void Instant(const char* name, const char* cat, uint32_t pid, uint32_t tid,
               double ts_s, Arg a = {}, Arg b = {});

  /// Flow arrows: FlowBegin at the sender, FlowEnd at the receiver, matched
  /// by `id` (e.g. the network FlowId). Perfetto draws the arrow between the
  /// enclosing slices on the two rows.
  void FlowBegin(const char* name, const char* cat, uint32_t pid, uint32_t tid,
                 double ts_s, uint64_t id, Arg a = {}, Arg b = {});
  void FlowEnd(const char* name, const char* cat, uint32_t pid, uint32_t tid,
               double ts_s, uint64_t id, Arg a = {}, Arg b = {});

  /// Row naming (trace-viewer metadata). Idempotent per (pid[, tid]).
  void SetProcessName(uint32_t pid, std::string name);
  void SetThreadName(uint32_t pid, uint32_t tid, std::string name);

  const std::vector<Event>& events() const { return events_; }
  size_t num_events() const { return events_.size(); }

  /// Counts events whose name matches exactly (test/debug convenience).
  size_t CountNamed(const char* name) const;

  /// Serializes the log as {"traceEvents":[...]} — virtual seconds become
  /// trace microseconds. Deterministic: depends only on the recorded events.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct RowName {
    uint32_t pid = 0;
    uint32_t tid = 0;
    bool is_process = false;
    std::string name;
  };

  std::vector<Event> events_;
  std::vector<RowName> row_names_;
};

}  // namespace asyncmr::obs
