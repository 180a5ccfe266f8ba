#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace afmm {

namespace {

// Fixed-format number rendering so identical doubles always serialize to
// identical bytes (std::ostream default formatting is locale-dependent).
std::string fmt_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_args(std::ostream& os, const std::vector<TraceArg>& args) {
  os << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) os << ",";
    write_escaped(os, args[i].key);
    os << ":";
    if (args[i].kind == TraceArg::Kind::kNumber)
      os << fmt_number(args[i].number);
    else
      write_escaped(os, args[i].text);
  }
  os << "}";
}

}  // namespace

int TraceRecorder::track_id(int pid, const std::string& track) {
  PidTracks& tracks = tids_[pid];
  const auto found = tracks.tid_of.find(track);
  if (found != tracks.tid_of.end()) return found->second;
  const int tid = tracks.next_tid++;
  tracks.tid_of.emplace(track, tid);
  tracks_.push_back({{pid, track}, tid});
  return tid;
}

void TraceRecorder::span(int pid, const std::string& track,
                         const std::string& name, const std::string& cat,
                         double t0_seconds, double dur_seconds,
                         std::vector<TraceArg> args) {
  TraceEvent e;
  e.ph = 'X';
  e.pid = pid;
  e.tid = track_id(pid, track);
  e.name = name;
  e.cat = cat;
  e.ts_us = t0_seconds * 1e6;
  e.dur_us = dur_seconds * 1e6;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::instant(int pid, const std::string& track,
                            const std::string& name, const std::string& cat,
                            double t_seconds, std::vector<TraceArg> args) {
  TraceEvent e;
  e.ph = 'i';
  e.pid = pid;
  e.tid = track_id(pid, track);
  e.name = name;
  e.cat = cat;
  e.ts_us = t_seconds * 1e6;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::counter(int pid, const std::string& track,
                            const std::string& name, double t_seconds,
                            double value) {
  TraceEvent e;
  e.ph = 'C';
  e.pid = pid;
  e.tid = track_id(pid, track);
  e.name = name;
  e.cat = "counter";
  e.ts_us = t_seconds * 1e6;
  e.args.push_back(TraceArg::num("value", value));
  events_.push_back(std::move(e));
}

bool TraceRecorder::has_category(const std::string& cat) const {
  for (const auto& e : events_)
    if (e.cat == cat) return true;
  return false;
}

void TraceRecorder::clear() {
  events_.clear();
  tracks_.clear();
  tids_.clear();
}

void TraceRecorder::write_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata: process names for the two time domains, thread (track) names
  // in first-use order.
  auto meta = [&](int pid, int tid, const char* what, const std::string& name) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"name\":\"" << what << "\",\"args\":{\"name\":";
    write_escaped(os, name);
    os << "}}";
  };
  bool saw_virtual = false;
  bool saw_wall = false;
  for (const auto& [key, tid] : tracks_) {
    (void)tid;
    saw_virtual |= key.first == kVirtualPid;
    saw_wall |= key.first == kWallPid;
  }
  if (saw_virtual) meta(kVirtualPid, 0, "process_name", "virtual time");
  if (saw_wall) meta(kWallPid, 0, "process_name", "wall time");
  for (const auto& [key, tid] : tracks_)
    meta(key.first, tid, "thread_name", key.second);

  for (const auto& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"" << e.ph << "\",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid << ",\"name\":";
    write_escaped(os, e.name);
    os << ",\"cat\":";
    write_escaped(os, e.cat);
    os << ",\"ts\":" << fmt_number(e.ts_us);
    if (e.ph == 'X') os << ",\"dur\":" << fmt_number(e.dur_us);
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    if (!e.args.empty()) {
      os << ",\"args\":";
      write_args(os, e.args);
    }
    os << "}";
  }
  os << "]}\n";
}

std::string TraceRecorder::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool TraceRecorder::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  return static_cast<bool>(f);
}

}  // namespace afmm
