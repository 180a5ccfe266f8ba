// Structured step tracing serialized as Chrome trace-event JSON.
//
// The recorder collects complete ("X"), instant ("i") and counter ("C")
// events on named tracks and writes the standard trace-event container
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// loadable in chrome://tracing and Perfetto. Two time domains coexist as two
// "processes":
//
//   * kVirtualPid -- the machine model's VIRTUAL time. Every duration is a
//     deterministic function of the simulated step, so a fixed-seed run
//     serializes to byte-identical JSON (the property the trace tests pin).
//   * kWallPid    -- REAL wall-clock measurements (OpTimers), present only
//     when the caller explicitly emits them; excluded from determinism
//     guarantees.
//
// Tracks ("threads" in the trace model) are created lazily by name; their
// metadata events are emitted at serialization time in first-use order, so
// the output is a pure function of the recorded events.
//
// Disabled tracing is a null sink: every emission site holds a
// `TraceRecorder*` and skips the call when it is null, so observability-off
// runs execute zero tracing instructions.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace afmm {

// One key/value event argument; numbers stay numbers in the JSON so Perfetto
// can aggregate them.
struct TraceArg {
  enum class Kind { kNumber, kString };
  std::string key;
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string text;

  static TraceArg num(std::string key, double value) {
    TraceArg a;
    a.key = std::move(key);
    a.kind = Kind::kNumber;
    a.number = value;
    return a;
  }
  static TraceArg str(std::string key, std::string value) {
    TraceArg a;
    a.key = std::move(key);
    a.kind = Kind::kString;
    a.text = std::move(value);
    return a;
  }
};

struct TraceEvent {
  char ph = 'X';          // X = complete, i = instant, C = counter
  int pid = 0;
  int tid = 0;
  std::string name;
  std::string cat;
  double ts_us = 0.0;     // event timestamp, microseconds
  double dur_us = 0.0;    // complete events only
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  static constexpr int kVirtualPid = 1;  // simulated (virtual) time
  static constexpr int kWallPid = 2;     // real wall-clock measurements

  TraceRecorder() = default;

  // A complete event of `dur_seconds` starting at `t0_seconds` on `track`.
  void span(int pid, const std::string& track, const std::string& name,
            const std::string& cat, double t0_seconds, double dur_seconds,
            std::vector<TraceArg> args = {});

  // A zero-duration marker at `t_seconds` (thread-scoped instant).
  void instant(int pid, const std::string& track, const std::string& name,
               const std::string& cat, double t_seconds,
               std::vector<TraceArg> args = {});

  // A counter sample; Perfetto renders these as a step chart per `name`.
  void counter(int pid, const std::string& track, const std::string& name,
               double t_seconds, double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // True when at least one recorded event carries this category.
  bool has_category(const std::string& cat) const;

  void clear();

  // Serialize the full container ({"traceEvents": [...]}). Output is a pure
  // function of the recorded events (fixed formatting, insertion order).
  void write_json(std::ostream& os) const;
  std::string to_json() const;
  // Best-effort file write (mirrors Table::mirror_csv: an unwritable path
  // never aborts a run). Returns false when the file could not be written.
  bool write_json_file(const std::string& path) const;

 private:
  int track_id(int pid, const std::string& track);

  // One process's tracks: tid by name, and the tid its next new track
  // takes (tids are numbered per pid in first-use order, from 1).
  struct PidTracks {
    std::unordered_map<std::string, int> tid_of;
    int next_tid = 1;
  };

  std::vector<TraceEvent> events_;
  // (pid, track name) -> tid, in first-use order for metadata emission.
  std::vector<std::pair<std::pair<int, std::string>, int>> tracks_;
  std::map<int, PidTracks> tids_;  // the index into tracks_, by pid
};

}  // namespace afmm
