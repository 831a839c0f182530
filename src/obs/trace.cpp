#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace asyncmr::obs {

namespace {

/// Formats a numeric arg value: integral doubles (the common case — counts,
/// ids, clocks) print without a fractional part so the JSON is stable and
/// compact; everything else gets enough digits to round-trip.
void AppendNumber(std::ostream& os, double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  os << buf;
}

/// Trace timestamps are microseconds; three decimals keeps sub-microsecond
/// DES ordering visible without bloating the file.
void AppendMicros(std::ostream& os, double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  os << buf;
}

void AppendEscaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
}

void AppendArgs(std::ostream& os, const TraceSink::Arg* args) {
  os << "\"args\":{";
  bool first = true;
  for (int i = 0; i < 2; ++i) {
    if (args[i].name == nullptr) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << args[i].name << "\":";
    AppendNumber(os, args[i].value);
  }
  os << '}';
}

}  // namespace

void TraceSink::Span(const char* name, const char* cat, uint32_t pid,
                     uint32_t tid, double start_s, double end_s, Arg a, Arg b) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.phase = Phase::kSpan;
  e.pid = pid;
  e.tid = tid;
  e.ts_s = start_s;
  e.dur_s = end_s - start_s;
  e.args[0] = a;
  e.args[1] = b;
  events_.push_back(e);
}

void TraceSink::Instant(const char* name, const char* cat, uint32_t pid,
                        uint32_t tid, double ts_s, Arg a, Arg b) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.phase = Phase::kInstant;
  e.pid = pid;
  e.tid = tid;
  e.ts_s = ts_s;
  e.args[0] = a;
  e.args[1] = b;
  events_.push_back(e);
}

void TraceSink::FlowBegin(const char* name, const char* cat, uint32_t pid,
                          uint32_t tid, double ts_s, uint64_t id, Arg a, Arg b) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.phase = Phase::kFlowBegin;
  e.pid = pid;
  e.tid = tid;
  e.ts_s = ts_s;
  e.id = id;
  e.args[0] = a;
  e.args[1] = b;
  events_.push_back(e);
}

void TraceSink::FlowEnd(const char* name, const char* cat, uint32_t pid,
                        uint32_t tid, double ts_s, uint64_t id, Arg a, Arg b) {
  Event e;
  e.name = name;
  e.cat = cat;
  e.phase = Phase::kFlowEnd;
  e.pid = pid;
  e.tid = tid;
  e.ts_s = ts_s;
  e.id = id;
  e.args[0] = a;
  e.args[1] = b;
  events_.push_back(e);
}

void TraceSink::SetProcessName(uint32_t pid, std::string name) {
  for (const RowName& r : row_names_) {
    if (r.is_process && r.pid == pid) return;
  }
  row_names_.push_back({pid, 0, true, std::move(name)});
}

void TraceSink::SetThreadName(uint32_t pid, uint32_t tid, std::string name) {
  for (const RowName& r : row_names_) {
    if (!r.is_process && r.pid == pid && r.tid == tid) return;
  }
  row_names_.push_back({pid, tid, false, std::move(name)});
}

size_t TraceSink::CountNamed(const char* name) const {
  size_t n = 0;
  const std::string target(name);
  for (const Event& e : events_) {
    if (target == e.name) ++n;
  }
  return n;
}

void TraceSink::WriteJson(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const RowName& r : row_names_) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << (r.is_process ? "process_name" : "thread_name")
       << "\",\"ph\":\"M\",\"pid\":" << r.pid;
    if (!r.is_process) os << ",\"tid\":" << r.tid;
    os << ",\"args\":{\"name\":\"";
    AppendEscaped(os, r.name);
    os << "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat << "\",\"ph\":\"";
    switch (e.phase) {
      case Phase::kSpan: os << 'X'; break;
      case Phase::kInstant: os << 'i'; break;
      case Phase::kFlowBegin: os << 's'; break;
      case Phase::kFlowEnd: os << 'f'; break;
    }
    os << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":";
    AppendMicros(os, e.ts_s);
    if (e.phase == Phase::kSpan) {
      os << ",\"dur\":";
      AppendMicros(os, e.dur_s);
    }
    if (e.phase == Phase::kInstant) os << ",\"s\":\"t\"";
    if (e.phase == Phase::kFlowBegin || e.phase == Phase::kFlowEnd) {
      os << ",\"id\":" << e.id;
      // Bind the arrow head to the enclosing slice rather than the next one.
      if (e.phase == Phase::kFlowEnd) os << ",\"bp\":\"e\"";
    }
    os << ',';
    AppendArgs(os, e.args);
    os << '}';
  }
  os << "]}";
}

std::string TraceSink::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

Status TraceSink::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot open trace file: " + path);
  WriteJson(out);
  out.flush();
  if (!out) return Status::DataLoss("short write to trace file: " + path);
  return Status::Ok();
}

}  // namespace asyncmr::obs
