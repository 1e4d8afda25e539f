#ifndef PTC_TELEMETRY_TRACE_HPP
#define PTC_TELEMETRY_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <vector>

/// Span tracing on *modeled hardware time*: nested, timestamped spans of
/// the serving event loop (request lifecycle, batch dispatches, per-core
/// tile passes and reloads, graph steps, recalibration downtime), exported
/// as Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
/// chrome://tracing.
///
/// Determinism contract: every span is emitted from the simulation's
/// calling thread with timestamps taken from the modeled clock, never from
/// host wall time or worker threads — so the trace is bit-identical across
/// runs and across host thread counts (pinned by tests/test_telemetry.cpp).
///
/// Zero-overhead no-op path: instrumented layers hold a `Tracer*` that
/// defaults to nullptr, and every emission site guards on it.  Span
/// arguments are passed as non-owning `Arg` PODs, so an unattached tracer
/// costs one branch and zero allocations (also pinned by test).
namespace ptc::telemetry {

/// Track ids for the one logical trace process.  Chrome nests spans per
/// (pid, tid); each track below carries only non-overlapping (or properly
/// nested) spans, which the trace linter enforces.
namespace track {
constexpr int kPid = 1;        ///< the whole simulated deployment
constexpr int kServe = 1;      ///< batch dispatches + recalibration windows
constexpr int kSteps = 2;      ///< graph::Step execution spans
constexpr int kQueue = 3;      ///< queue-depth counter samples
constexpr int kCoreBase = 16;  ///< + core index: per-core passes / reloads
}  // namespace track

/// One span/event argument: a non-owning key + scalar/string value.  The
/// tracer copies it into owned storage only when a sink is attached.
struct Arg {
  enum class Kind { kString, kNumber, kBool };
  const char* key;
  Kind kind;
  const char* str;
  double num;

  constexpr Arg(const char* k, const char* v)
      : key(k), kind(Kind::kString), str(v), num(0.0) {}
  constexpr Arg(const char* k, double v)
      : key(k), kind(Kind::kNumber), str(nullptr), num(v) {}
  constexpr Arg(const char* k, std::size_t v)
      : key(k), kind(Kind::kNumber), str(nullptr),
        num(static_cast<double>(v)) {}
  constexpr Arg(const char* k, bool v)
      : key(k), kind(Kind::kBool), str(nullptr), num(v ? 1.0 : 0.0) {}
};

/// One recorded event (all times in modeled seconds).
struct TraceEvent {
  enum class Phase {
    kComplete,    ///< "X": a span [ts, ts + dur] on (pid, tid)
    kAsyncBegin,  ///< "b": async span start, keyed by (category, id)
    kAsyncEnd,    ///< "e": async span end
    kCounter,     ///< "C": counter sample
    kInstant,     ///< "i": point event
  };
  Phase phase = Phase::kComplete;
  std::string name;
  std::string category;
  int tid = track::kServe;
  std::uint64_t id = 0;  ///< async span id (request id)
  double ts = 0.0;       ///< modeled seconds
  double dur = 0.0;      ///< modeled seconds (complete spans)
  double value = 0.0;    ///< counter sample value
  std::vector<std::pair<std::string, std::string>> args;  ///< key -> JSON
};

/// Records events and serializes them as Chrome trace-event JSON.  One
/// tracer per run; attach it to the layers to instrument (Server::set_tracer
/// fans out to the accelerator) and write the file when the run completes.
class Tracer {
 public:
  /// Span [t0, t1] on `tid`.  Spans on one track must nest properly —
  /// emitters guarantee this by construction (sequential modeled time).
  void complete(int tid, const char* name, const char* category, double t0,
                double t1, std::initializer_list<Arg> args = {});

  /// Async span keyed by (category, id) — overlapping lifecycles (queued
  /// requests) that no single track could hold.
  void async_begin(const char* name, const char* category, std::uint64_t id,
                   double ts, std::initializer_list<Arg> args = {});
  void async_end(const char* name, const char* category, std::uint64_t id,
                 double ts);

  /// Counter sample (rendered as a filled timeline in Perfetto).
  void counter(int tid, const char* name, double ts, double value);

  /// Point event on `tid`.
  void instant(int tid, const char* name, const char* category, double ts,
               std::initializer_list<Arg> args = {});

  /// Names a track in the viewer (thread_name metadata).
  void set_track_name(int tid, const std::string& name);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Events of `phase` whose category matches (all when category is empty).
  std::size_t count(TraceEvent::Phase phase,
                    const std::string& category = "") const;

  void clear() { events_.clear(); }

  /// Chrome trace-event JSON ({"traceEvents": [...]}, ts in microseconds).
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;
  /// Writes chrome_json() to `path` once lint_chrome_trace finds no
  /// problem.  Throws std::runtime_error naming the first problem (and
  /// writes nothing), or on an IO error.
  void write_chrome_json_file(const std::string& path) const;

 private:
  void push(TraceEvent event, std::initializer_list<Arg> args);

  std::vector<TraceEvent> events_;
  std::map<int, std::string> track_names_;
};

/// PTC_TRACE environment hook: the trace file path benches/examples should
/// write, or nullptr when tracing is off.
const char* trace_path_from_env();

/// Validates Chrome trace-event JSON: the document parses, events carry the
/// required fields, complete spans nest properly per (pid, tid), async
/// begin/end events pair up per (category, id), counter samples are
/// monotone in time per (pid, tid, name), and contract-bearing instants
/// carry their consumer arg schemas — health_alert (string "slo", numeric
/// "core"), fault_injected / fault_cleared (string "kind", numeric
/// "core"), core_evicted / core_readmitted (numeric "core"), token_step
/// (numeric "batch" and "passes"), kv_evicted (string "tenant", numeric
/// "rows"), request_preempted (string "tenant", numeric "request").  Returns
/// human-readable problems (empty == lint-clean).  Every
/// Tracer::write_chrome_json_file runs it first, and tests/test_telemetry.cpp
/// runs it on the tests' traces.
std::vector<std::string> lint_chrome_trace(const std::string& json_text);

}  // namespace ptc::telemetry

#endif  // PTC_TELEMETRY_TRACE_HPP
