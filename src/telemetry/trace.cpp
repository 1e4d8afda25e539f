#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/expects.hpp"
#include "common/json.hpp"

namespace ptc::telemetry {
namespace {

/// Modeled seconds -> Chrome trace microseconds.
double to_us(double seconds) { return seconds * 1e6; }

std::string render_arg(const Arg& arg) {
  switch (arg.kind) {
    case Arg::Kind::kString:
      return json::quote(arg.str != nullptr ? arg.str : "");
    case Arg::Kind::kNumber:
      return json::format_number(arg.num);
    case Arg::Kind::kBool:
      return arg.num != 0.0 ? "true" : "false";
  }
  return "null";
}

}  // namespace

void Tracer::push(TraceEvent event, std::initializer_list<Arg> args) {
  event.args.reserve(args.size());
  for (const Arg& arg : args) {
    event.args.emplace_back(arg.key, render_arg(arg));
  }
  events_.push_back(std::move(event));
}

void Tracer::complete(int tid, const char* name, const char* category,
                      double t0, double t1, std::initializer_list<Arg> args) {
  expects(t1 >= t0, "span must end at or after its start");
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.name = name;
  event.category = category;
  event.tid = tid;
  event.ts = t0;
  event.dur = t1 - t0;
  push(std::move(event), args);
}

void Tracer::async_begin(const char* name, const char* category,
                         std::uint64_t id, double ts,
                         std::initializer_list<Arg> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kAsyncBegin;
  event.name = name;
  event.category = category;
  event.id = id;
  event.ts = ts;
  push(std::move(event), args);
}

void Tracer::async_end(const char* name, const char* category,
                       std::uint64_t id, double ts) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kAsyncEnd;
  event.name = name;
  event.category = category;
  event.id = id;
  event.ts = ts;
  push(std::move(event), {});
}

void Tracer::counter(int tid, const char* name, double ts, double value) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kCounter;
  event.name = name;
  event.tid = tid;
  event.ts = ts;
  event.value = value;
  push(std::move(event), {});
}

void Tracer::instant(int tid, const char* name, const char* category,
                     double ts, std::initializer_list<Arg> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = name;
  event.category = category;
  event.tid = tid;
  event.ts = ts;
  push(std::move(event), args);
}

void Tracer::set_track_name(int tid, const std::string& name) {
  track_names_[tid] = name;
}

std::size_t Tracer::count(TraceEvent::Phase phase,
                          const std::string& category) const {
  std::size_t n = 0;
  for (const TraceEvent& event : events_) {
    if (event.phase == phase &&
        (category.empty() || event.category == category)) {
      ++n;
    }
  }
  return n;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Metadata first: name the process and every named track.
  comma();
  out << " {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": "
      << track::kPid << ", \"args\": {\"name\": \"ptc\"}}";
  for (const auto& [tid, name] : track_names_) {
    comma();
    out << " {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": "
        << track::kPid << ", \"tid\": " << tid
        << ", \"args\": {\"name\": " << json::quote(name) << "}}";
  }

  for (const TraceEvent& event : events_) {
    comma();
    out << " {\"ph\": \"";
    switch (event.phase) {
      case TraceEvent::Phase::kComplete: out << "X"; break;
      case TraceEvent::Phase::kAsyncBegin: out << "b"; break;
      case TraceEvent::Phase::kAsyncEnd: out << "e"; break;
      case TraceEvent::Phase::kCounter: out << "C"; break;
      case TraceEvent::Phase::kInstant: out << "i"; break;
    }
    out << "\", \"name\": " << json::quote(event.name);
    if (!event.category.empty()) {
      out << ", \"cat\": " << json::quote(event.category);
    }
    out << ", \"pid\": " << track::kPid;
    const bool async = event.phase == TraceEvent::Phase::kAsyncBegin ||
                       event.phase == TraceEvent::Phase::kAsyncEnd;
    if (async) {
      out << ", \"id\": " << json::quote(std::to_string(event.id));
    } else {
      out << ", \"tid\": " << event.tid;
    }
    out << ", \"ts\": " << json::format_number(to_us(event.ts));
    if (event.phase == TraceEvent::Phase::kComplete) {
      out << ", \"dur\": " << json::format_number(to_us(event.dur));
    }
    if (event.phase == TraceEvent::Phase::kInstant) {
      out << ", \"s\": \"t\"";
    }
    if (event.phase == TraceEvent::Phase::kCounter) {
      out << ", \"args\": {\"value\": " << json::format_number(event.value)
          << "}";
    } else if (!event.args.empty()) {
      out << ", \"args\": {";
      for (std::size_t i = 0; i < event.args.size(); ++i) {
        if (i > 0) out << ", ";
        out << json::quote(event.args[i].first) << ": "
            << event.args[i].second;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

std::string Tracer::chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

void Tracer::write_chrome_json_file(const std::string& path) const {
  // Lint before anything reaches the disk: a trace that a viewer would
  // misread is never written.
  const std::string text = chrome_json();
  const std::vector<std::string> problems = lint_chrome_trace(text);
  if (!problems.empty()) {
    throw std::runtime_error("telemetry: trace lint: " + problems.front() +
                             " (nothing written to " + path + ")");
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("telemetry: cannot open trace file " + path);
  }
  out << text;
  if (!out.good()) {
    throw std::runtime_error("telemetry: failed writing trace file " + path);
  }
}

const char* trace_path_from_env() { return std::getenv("PTC_TRACE"); }

namespace {

struct Span {
  double start = 0.0;
  double end = 0.0;
  std::string name;
};

}  // namespace

std::vector<std::string> lint_chrome_trace(const std::string& json_text) {
  std::vector<std::string> problems;
  json::Value doc = json::Value::null();
  try {
    doc = json::parse(json_text);
  } catch (const std::invalid_argument& e) {
    problems.push_back(std::string("document does not parse: ") + e.what());
    return problems;
  }
  if (!doc.is_object() || !doc.contains("traceEvents") ||
      !doc.at("traceEvents").is_array()) {
    problems.push_back("document has no traceEvents array");
    return problems;
  }

  // Collect complete spans per (pid, tid), async begin/end tallies per
  // (category, id), and the last-seen timestamp of every counter track per
  // (pid, tid, name).
  std::map<std::pair<double, double>, std::vector<Span>> tracks;
  std::map<std::pair<std::string, std::string>, std::pair<int, int>> async_events;
  std::map<std::pair<std::pair<double, double>, std::string>, double>
      counter_last;
  std::size_t index = 0;
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    const std::string where = "event " + std::to_string(index++);
    if (!event.is_object() || !event.contains("ph") ||
        !event.at("ph").is_string()) {
      problems.push_back(where + ": missing ph");
      continue;
    }
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") continue;
    if (!event.contains("name") || !event.at("name").is_string()) {
      problems.push_back(where + ": missing name");
      continue;
    }
    if (!event.contains("ts") || !event.at("ts").is_number()) {
      problems.push_back(where + ": missing ts");
      continue;
    }
    if (ph == "X") {
      if (!event.contains("dur") || !event.at("dur").is_number()) {
        problems.push_back(where + ": complete event missing dur");
        continue;
      }
      if (event.at("dur").as_number() < 0.0) {
        problems.push_back(where + ": negative dur");
        continue;
      }
      const double pid =
          event.contains("pid") ? event.at("pid").as_number() : 0.0;
      const double tid =
          event.contains("tid") ? event.at("tid").as_number() : 0.0;
      Span span;
      span.start = event.at("ts").as_number();
      span.end = span.start + event.at("dur").as_number();
      span.name = event.at("name").as_string();
      tracks[{pid, tid}].push_back(std::move(span));
    } else if (ph == "b" || ph == "e") {
      if (!event.contains("id")) {
        problems.push_back(where + ": async event missing id");
        continue;
      }
      const std::string id = event.at("id").is_string()
                                 ? event.at("id").as_string()
                                 : json::format_number(event.at("id").as_number());
      const std::string cat =
          event.contains("cat") ? event.at("cat").as_string() : "";
      auto& tally = async_events[{cat, id}];
      if (ph == "b") ++tally.first;
      else ++tally.second;
    } else if (ph == "C") {
      // Counter samples describe one monotone modeled-time series per
      // (pid, tid, name): a sample behind its predecessor means some code
      // path emitted with a stale clock.
      const double pid =
          event.contains("pid") ? event.at("pid").as_number() : 0.0;
      const double tid =
          event.contains("tid") ? event.at("tid").as_number() : 0.0;
      const std::string& name = event.at("name").as_string();
      const double ts = event.at("ts").as_number();
      auto [it, inserted] =
          counter_last.try_emplace({{pid, tid}, name}, ts);
      if (!inserted) {
        if (ts < it->second) {
          std::ostringstream msg;
          msg << where << ": counter \"" << name << "\" on track (" << pid
              << ", " << tid << ") goes back in time (" << ts << " after "
              << it->second << ")";
          problems.push_back(msg.str());
        }
        it->second = std::max(it->second, ts);
      }
    } else if (ph == "i") {
      // Instants with a consumer-facing arg contract: dashboards and the
      // fault post-mortem tooling join on these keys, so the linter pins
      // them.  health_alert carries its routing slo label + core index
      // (fleet/health.cpp); the fault lifecycle instants
      // (serve/server.cpp) carry the fault kind and/or the struck core.
      const std::string& name = event.at("name").as_string();
      const json::Value* args =
          event.contains("args") && event.at("args").is_object()
              ? &event.at("args")
              : nullptr;
      const auto require_string = [&](const char* key) {
        if (args == nullptr || !args->contains(key) ||
            !args->at(key).is_string()) {
          problems.push_back(where + ": " + name + " missing string \"" +
                             key + "\" arg");
        }
      };
      const auto require_number = [&](const char* key) {
        if (args == nullptr || !args->contains(key) ||
            !args->at(key).is_number()) {
          problems.push_back(where + ": " + name + " missing numeric \"" +
                             key + "\" arg");
        }
      };
      if (name == "health_alert") {
        require_string("slo");
        require_number("core");
      } else if (name == "fault_injected" || name == "fault_cleared") {
        require_string("kind");
        require_number("core");
      } else if (name == "core_evicted" || name == "core_readmitted") {
        require_number("core");
      } else if (name == "token_step") {
        // Token-serving cadence (serve/token_server.cpp): dashboards plot
        // batch occupancy and pass mix per decode step.
        require_number("batch");
        require_number("passes");
      } else if (name == "kv_evicted") {
        require_string("tenant");
        require_number("rows");
      } else if (name == "request_preempted") {
        require_string("tenant");
        require_number("request");
      }
    }
  }

  // Complete spans on one track must nest properly: sweep in (start, -end)
  // order with a stack of enclosing spans; every span must fit entirely
  // within the innermost still-open enclosure.
  for (auto& [key, spans] : tracks) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.end > b.end;
    });
    std::vector<Span> stack;
    for (const Span& span : spans) {
      // Spans that share a boundary (back-to-back passes) serialize through
      // ts/dur microsecond doubles, so "touching" is only exact to float
      // rounding: allow a relative slack far below any real overlap.
      const double slack =
          1e-9 * std::max(std::abs(span.start), std::abs(span.end));
      while (!stack.empty() && stack.back().end <= span.start + slack) {
        stack.pop_back();
      }
      if (!stack.empty() && span.end > stack.back().end + slack) {
        std::ostringstream msg;
        msg << "track (" << key.first << ", " << key.second << "): span \""
            << span.name << "\" [" << span.start << ", " << span.end
            << "] overlaps \"" << stack.back().name << "\" ["
            << stack.back().start << ", " << stack.back().end
            << "] without nesting";
        problems.push_back(msg.str());
        continue;
      }
      stack.push_back(span);
    }
  }

  for (const auto& [key, tally] : async_events) {
    if (tally.first != tally.second) {
      problems.push_back("async (" + key.first + ", id " + key.second +
                         "): " + std::to_string(tally.first) + " begin vs " +
                         std::to_string(tally.second) + " end events");
    }
  }
  return problems;
}

}  // namespace ptc::telemetry
