// ptc_benchmark: host and modeled speed of the photonic tensor core
// simulator on four fixed workloads, end to end and layer by layer.
//
//   ptc_benchmark --workload W --seed N --seconds T --trace 0|1
//       One workload: fresh round processes for T seconds (at least
//       kMinRounds), medians printed as a JSON line (the last stdout line);
//       --trace 1 adds a traced round and prints the per-layer metrics.
//   ptc_benchmark [--seed N]
//       All four workloads: 7 rounds each, interleaved, one traced round
//       each, then the --check suite.  Writes results.json.
//   ptc_benchmark --compare A.json B.json
//       One row per (metric, workload) with a better/worse/same/unresolved
//       verdict; exits nonzero on "worse".
//
// Common options: --threads N (runtime pool workers, default
// min(4, nproc) - 1: the calling thread helps, so a round runs at most
// min(4, nproc) threads), --out PATH (results file), --check.
// See README.md for the workloads, metrics and the peel method.
#include <sched.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace ptc;
using namespace ptc::benchmark;
using Clock = std::chrono::steady_clock;

/// A run keeps launching rounds until --seconds have passed, and runs at
/// least this many, so every median spans several processes.
constexpr std::size_t kMinRounds = 3;
/// Rounds per workload when all workloads run.
constexpr std::size_t kRounds = 7;

struct Options {
  std::optional<std::string> workload;
  std::optional<std::uint64_t> seed;
  double seconds = 20.0;
  bool trace = false;
  bool check = false;
  std::size_t threads = 1;
  std::optional<std::string> out;
  std::optional<std::string> round;  ///< internal: run one round here
  std::string trace_dir;
  std::vector<std::string> compare;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "ptc_benchmark: " << error << "\n"
            << "usage: ptc_benchmark [--workload W] [--seed N] [--seconds T]"
               " [--trace 0|1]\n"
               "                     [--threads N] [--check] [--out PATH]\n"
               "       ptc_benchmark --compare A.json B.json\n"
               "workloads:";
  for (const std::string& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_unsigned(const std::string& flag, const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    usage(flag + " needs a non-negative integer, got '" + s + "'");
  try {
    return std::stoull(s);
  } catch (const std::exception&) {
    usage(flag + " is out of range: '" + s + "'");
  }
}

double parse_seconds(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !(v > 0.0) || v > 3600.0)
    usage("--seconds needs a number in (0, 3600], got '" + s + "'");
  return v;
}

std::size_t default_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max<std::size_t>(1, std::min<std::size_t>(4, cpus) - 1);
}

bool known_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Options parse(int argc, char** argv) {
  Options o;
  o.threads = default_threads();
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      o.workload = value(i);
      if (!known_workload(*o.workload))
        usage("unknown workload '" + *o.workload + "'");
    } else if (arg == "--round") {
      o.round = value(i);
      if (!known_workload(*o.round))
        usage("unknown workload '" + *o.round + "'");
    } else if (arg == "--seed") {
      o.seed = parse_unsigned(arg, value(i));
    } else if (arg == "--seconds") {
      o.seconds = parse_seconds(value(i));
    } else if (arg == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--threads") {
      o.threads = parse_unsigned(arg, value(i));
      if (o.threads == 0 || o.threads > 256)
        usage("--threads must be in [1, 256]");
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--out") {
      o.out = value(i);
    } else if (arg == "--trace-dir") {
      o.trace_dir = value(i);
    } else if (arg == "--compare") {
      o.compare.push_back(value(i));
      o.compare.push_back(value(i));
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  return o;
}

std::string exe_path() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

/// Runs `args` as a child process (no shell), returning its exit status
/// and standard output.  Waits for the child before returning.
std::pair<int, std::string> run_child(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<char*> argv;
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buffer[4096];
  while (true) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n > 0) {
      out.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return {status, out};
}

/// One round in a fresh process.  A crashed or failing round comes back
/// as a result carrying the failure.
RoundResult launch_round(const Options& o, const std::string& workload,
                         bool traced, std::size_t threads) {
  std::vector<std::string> args = {exe_path(),  "--round",
                                   workload,    "--threads",
                                   std::to_string(threads), "--trace",
                                   traced ? "1" : "0", "--trace-dir",
                                   o.trace_dir};
  if (o.seed) {
    args.push_back("--seed");
    args.push_back(std::to_string(*o.seed));
  }
  const auto [status, out] = run_child(args);
  RoundResult failed;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failed.failures.push_back(workload + " round process failed (status " +
                              std::to_string(status) + ")");
    return failed;
  }
  std::istringstream lines(out);
  std::string line;
  std::string last;
  while (std::getline(lines, line))
    if (!line.empty()) last = line;
  try {
    return round_from_json(json::parse(last));
  } catch (const std::exception& e) {
    failed.failures.push_back(workload + " round output unreadable: " +
                              e.what());
    return failed;
  }
}

/// Everything measured for one workload, aggregated over its rounds.
struct Summary {
  std::string workload;
  std::vector<RoundResult> rounds;
  std::optional<RoundResult> traced;
  std::vector<std::string> failures;  ///< every failed check
  std::vector<std::string> warnings;
  double attempted = 0.0;  ///< items attempted (served or shed), all rounds
  /// Shed items, plus every item of a round whose own checks failed.
  double failed_items = 0.0;
  bool run_failed = false;  ///< a check over the whole run failed

  /// Items failed: all of them when a check over the whole run failed.
  double failed() const {
    return run_failed ? std::max(1.0, attempted) : failed_items;
  }
  bool correct() const { return failures.empty(); }
  void fail_run(const std::string& failure) {
    run_failed = true;
    failures.push_back(failure);
  }

  std::vector<double> values(const std::string& metric) const {
    std::vector<double> out;
    for (const RoundResult& r : rounds) {
      if (metric == "setup_s") {
        out.push_back(r.setup_s);
      } else if (metric == "host_items_per_s") {
        out.push_back(r.items / r.unit_at_reference_s());
      } else if (metric == "peak_rss_mb") {
        out.push_back(r.peak_rss_mb);
      } else if (r.modeled.count(metric)) {
        out.push_back(r.modeled.at(metric));
      }
    }
    return out;
  }

  std::map<std::string, double> layers() const {
    std::map<std::string, double> out;
    if (!traced) return out;
    out = traced->layers;
    std::vector<double> units;
    for (const RoundResult& r : rounds)
      units.push_back(r.unit_at_reference_s());
    const double timed = quartiles(units).median;
    out["trace.overhead"] =
        timed > 0.0 ? traced->unit_at_reference_s() / timed - 1.0 : 0.0;
    return out;
  }
};

/// Folds rounds into a summary and applies the cross-round checks: every
/// deterministic metric repeats bit for bit, in every round and in the
/// traced round.
Summary summarize(const std::string& workload, std::vector<RoundResult> rounds,
                  std::optional<RoundResult> traced) {
  Summary s;
  s.workload = workload;
  // A round whose process failed measured nothing, not even its items, so
  // it fails the whole run.
  const auto absorb = [&s](const RoundResult& r) {
    const double attempted = r.items + static_cast<double>(r.shed);
    s.attempted += attempted;
    s.failed_items +=
        r.failures.empty() ? static_cast<double>(r.shed) : attempted;
    for (const std::string& f : r.failures) s.failures.push_back(f);
    for (const std::string& w : r.warnings) s.warnings.push_back(w);
    if (r.unit_s <= 0.0) s.run_failed = true;
    return r.unit_s > 0.0;
  };
  for (RoundResult& r : rounds)
    if (absorb(r)) s.rounds.push_back(std::move(r));
  if (traced && absorb(*traced)) s.traced = std::move(traced);
  if (s.rounds.empty()) return s;
  const RoundResult& first = s.rounds.front();
  for (const MetricSpec& spec : end_to_end_metrics()) {
    if (!is_deterministic(spec.name)) continue;
    if (!first.modeled.count(spec.name)) {
      s.fail_run(std::string(spec.name) + " was not reported");
      continue;
    }
    const double v = first.modeled.at(spec.name);
    for (const RoundResult& r : s.rounds) {
      if (!r.modeled.count(spec.name) || r.modeled.at(spec.name) != v) {
        s.fail_run(std::string(spec.name) + " differs between rounds");
        break;
      }
    }
    if (s.traced && (!s.traced->modeled.count(spec.name) ||
                     s.traced->modeled.at(spec.name) != v)) {
      s.fail_run(std::string(spec.name) + " changed under tracing");
    }
  }
  return s;
}

/// Reruns a workload with one pool worker and requires its deterministic
/// metrics to equal those of the rounds run with `threads` workers.
void check_thread_identity(const Options& o, Summary& s) {
  if (o.threads == 1 || s.rounds.empty()) return;
  const RoundResult one = launch_round(o, s.workload, false, 1);
  for (const std::string& f : one.failures) s.fail_run(f);
  for (const auto& [name, value] : s.rounds.front().modeled) {
    if (!one.modeled.count(name) || one.modeled.at(name) != value) {
      s.fail_run(name + " differs between 1 and " +
                 std::to_string(o.threads) + " pool threads");
    }
  }
}

/// BENCHMARK.json (in the working directory) must declare exactly this
/// binary's workloads and metrics.
std::vector<std::string> check_declaration() {
  std::vector<std::string> failures;
  try {
    const json::Value doc = read_json_file("BENCHMARK.json");
    std::vector<std::string> declared;
    for (const json::Value& w : doc.at("workloads").as_array())
      declared.push_back(w.at("name").as_string());
    if (declared != workload_names())
      failures.push_back("BENCHMARK.json workloads differ from the binary's");
    const auto compare = [&](const char* key,
                             const std::vector<MetricSpec>& specs,
                             bool bounds) {
      const auto& list = doc.at(key).as_array();
      if (list.size() != specs.size()) {
        failures.push_back(std::string("BENCHMARK.json ") + key +
                           " lists a different number of metrics");
        return;
      }
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const json::Value& m = list[i];
        const bool same =
            m.at("name").as_string() == specs[i].name &&
            m.at("unit").as_string() == specs[i].unit &&
            m.at("better").as_string() ==
                (specs[i].higher_is_better ? "higher" : "lower") &&
            (!bounds || m.at("bound").as_number() == specs[i].bound);
        if (!same) {
          failures.push_back(std::string("BENCHMARK.json ") + key +
                             " entry differs: " + specs[i].name);
        }
      }
    };
    compare("end_to_end", end_to_end_metrics(), true);
    compare("per_layer", per_layer_metrics(), false);
  } catch (const std::exception& e) {
    failures.push_back(std::string("BENCHMARK.json: ") + e.what());
  }
  return failures;
}

std::string metric_unit(const std::vector<MetricSpec>& specs,
                        const std::string& name) {
  for (const MetricSpec& spec : specs)
    if (name == spec.name) return spec.unit;
  return "";
}

void write_number_list(std::ostream& out, const std::vector<double>& values) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out << (i == 0 ? "" : ", ") << json::format_number(values[i]);
  out << "]";
}

/// The results file `--compare` reads: per workload, every end-to-end
/// metric's median, quartiles and per-round values, plus per-layer metrics
/// of the traced round; `failures` holds the checks no workload owns.
void write_results(const std::string& path, const Options& o,
                   const std::vector<Summary>& summaries,
                   const std::vector<std::string>& failures) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"ptc_benchmark/1\",\n  \"pool_threads\": "
      << o.threads << ",\n  \"seed\": "
      << (o.seed ? std::to_string(*o.seed) : std::string("null"))
      << ",\n  \"failures\": ";
  write_json_strings(out, failures);
  out << ",\n  \"workloads\": {";
  for (std::size_t w = 0; w < summaries.size(); ++w) {
    const Summary& s = summaries[w];
    const RoundResult* first = s.rounds.empty() ? nullptr : &s.rounds.front();
    out << (w == 0 ? "\n" : ",\n") << "    " << json::quote(s.workload)
        << ": {\n      \"rounds\": " << s.rounds.size()
        << ", \"attempted\": " << json::format_number(s.attempted)
        << ", \"failed\": " << json::format_number(s.failed())
        << ", \"failed_fraction\": "
        << json::format_number(s.failed() / std::max(1.0, s.attempted))
        << ", \"correct\": " << (s.correct() ? "true" : "false")
        << ",\n      \"tail_percentile\": "
        << json::format_number(first ? first->tail_percentile : 0.0)
        << ", \"tail_samples\": " << (first ? first->tail_samples : 0)
        << ",\n      \"failures\": ";
    write_json_strings(out, s.failures);
    out << ",\n      \"warnings\": ";
    write_json_strings(out, s.warnings);
    out << ",\n      \"metrics\": {";
    bool first_metric = true;
    for (const MetricSpec& spec : end_to_end_metrics()) {
      const std::vector<double> values = s.values(spec.name);
      const Quartiles q = quartiles(values);
      out << (first_metric ? "\n" : ",\n") << "        "
          << json::quote(spec.name) << ": {\"unit\": " << json::quote(spec.unit)
          << ", \"better\": \""
          << (spec.higher_is_better ? "higher" : "lower")
          << "\", \"bound\": " << json::format_number(spec.bound)
          << ", \"median\": " << json::format_number(q.median)
          << ", \"q1\": " << json::format_number(q.q1)
          << ", \"q3\": " << json::format_number(q.q3) << ", \"values\": ";
      write_number_list(out, values);
      out << "}";
      first_metric = false;
    }
    out << "\n      },\n      \"layers\": {";
    bool first_layer = true;
    for (const auto& [name, value] : s.layers()) {
      out << (first_layer ? "\n" : ",\n") << "        " << json::quote(name)
          << ": {\"unit\": "
          << json::quote(metric_unit(per_layer_metrics(), name))
          << ", \"value\": " << json::format_number(value) << "}";
      first_layer = false;
    }
    out << "\n      }\n    }";
  }
  out << "\n  }\n}\n";
  if (!out) std::cerr << "ptc_benchmark: cannot write " << path << "\n";
}

void print_summaries(const std::vector<Summary>& summaries) {
  std::vector<std::string> header = {"metric", "unit"};
  for (const Summary& s : summaries) header.push_back(s.workload);
  TablePrinter e2e(header);
  for (const MetricSpec& spec : end_to_end_metrics()) {
    std::vector<std::string> row = {spec.name, spec.unit};
    for (const Summary& s : summaries) {
      const Quartiles q = quartiles(s.values(spec.name));
      std::string cell = TablePrinter::num(q.median, 5);
      if (!is_deterministic(spec.name) && s.rounds.size() > 1)
        cell += " (±" + TablePrinter::num(100.0 * q.spread() / 2.0, 2) + "%)";
      row.push_back(cell);
    }
    e2e.add_row(row);
  }
  std::cout << "end-to-end (median over rounds; ± half the interquartile "
               "spread):\n";
  e2e.print(std::cout);

  bool any_traced = false;
  for (const Summary& s : summaries) any_traced = any_traced || s.traced;
  if (any_traced) {
    TablePrinter layers(header);
    for (const MetricSpec& spec : per_layer_metrics()) {
      std::vector<std::string> row = {spec.name, spec.unit};
      for (const Summary& s : summaries) {
        const auto values = s.layers();
        row.push_back(values.count(spec.name)
                          ? TablePrinter::num(values.at(spec.name), 5)
                          : "-");
      }
      layers.add_row(row);
    }
    std::cout << "\nper layer (traced round):\n";
    layers.print(std::cout);
  }
  for (const Summary& s : summaries) {
    for (const std::string& w : s.warnings)
      std::cout << "warning [" << s.workload << "]: " << w << "\n";
    for (const std::string& f : s.failures)
      std::cout << "FAILED [" << s.workload << "]: " << f << "\n";
  }
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One workload for --seconds.  The last stdout line is {"correct",
/// "attempted", "failed", "metrics"}.
int run_single(const Options& o) {
  const std::string& workload = *o.workload;
  std::vector<RoundResult> rounds;
  const Clock::time_point start = Clock::now();
  while (rounds.size() < kMinRounds || seconds_since(start) < o.seconds)
    rounds.push_back(launch_round(o, workload, false, o.threads));
  std::optional<RoundResult> traced;
  if (o.trace) traced = launch_round(o, workload, true, o.threads);
  Summary s = summarize(workload, std::move(rounds), std::move(traced));
  for (const std::string& f : cross_check_baseline(workload, o.threads))
    s.fail_run(f);
  if (o.check) {
    check_thread_identity(o, s);
    for (const std::string& f : check_declaration()) s.fail_run(f);
  }
  write_results(o.out.value_or(o.trace_dir + "/results_" + workload + ".json"),
                o, {s}, {});
  print_summaries({s});

  std::ostringstream line;
  line << "{\"correct\": " << (s.correct() ? "true" : "false")
       << ", \"attempted\": "
       << static_cast<std::uint64_t>(std::max(1.0, s.attempted))
       << ", \"failed\": " << static_cast<std::uint64_t>(s.failed())
       << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, double value,
                        const std::string& unit) {
    line << (first ? "" : ", ") << json::quote(name)
         << ": {\"value\": " << json::format_number(value)
         << ", \"unit\": " << json::quote(unit) << "}";
    first = false;
  };
  if (o.trace) {
    const std::map<std::string, double> layers = s.layers();
    for (const MetricSpec& spec : per_layer_metrics())
      emit(spec.name, layers.count(spec.name) ? layers.at(spec.name) : 0.0,
           spec.unit);
  } else {
    for (const MetricSpec& spec : end_to_end_metrics())
      emit(spec.name, quartiles(s.values(spec.name)).median, spec.unit);
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return s.correct() && s.failed() == 0.0 ? 0 : 1;
}

/// All workloads: interleaved rounds (w1 w2 w3 w4 w1 ...), one traced
/// round each, then the check suite.
int run_all(const Options& o) {
  const std::vector<std::string>& names = workload_names();
  std::map<std::string, std::vector<RoundResult>> rounds;
  for (std::size_t k = 0; k < kRounds; ++k) {
    for (const std::string& name : names) {
      std::cerr << "round " << k + 1 << "/" << kRounds << " " << name << "\n";
      rounds[name].push_back(launch_round(o, name, false, o.threads));
    }
  }
  std::vector<Summary> summaries;
  for (const std::string& name : names) {
    std::cerr << "traced round " << name << "\n";
    RoundResult traced = launch_round(o, name, true, o.threads);
    summaries.push_back(
        summarize(name, std::move(rounds[name]), std::move(traced)));
  }
  std::cerr << "checks\n";
  for (Summary& s : summaries) {
    check_thread_identity(o, s);
    for (const std::string& f : cross_check_baseline(s.workload, o.threads))
      s.fail_run(f);
  }
  const std::vector<std::string> global = check_declaration();

  const std::string path = o.out.value_or(o.trace_dir + "/results.json");
  write_results(path, o, summaries, global);
  print_summaries(summaries);
  for (const std::string& f : global) std::cout << "FAILED: " << f << "\n";
  bool ok = global.empty();
  for (const Summary& s : summaries)
    ok = ok && s.correct() && s.failed() == 0.0;
  std::cout << "\nwrote " << path << (ok ? "; all checks passed\n" : "\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  try {
    if (!o.compare.empty()) return compare_results(o.compare[0], o.compare[1]);
    if (o.trace_dir.empty())
      o.trace_dir = std::filesystem::path(exe_path()).parent_path().string();
    if (o.round) {
      RoundConfig config;
      config.workload = *o.round;
      config.seed = o.seed;
      config.threads = o.threads;
      config.traced = o.trace;
      config.trace_dir = o.trace_dir;
      std::cout << round_to_json(run_round(config)) << std::endl;
      return 0;
    }
    return o.workload ? run_single(o) : run_all(o);
  } catch (const std::exception& e) {
    std::cerr << "ptc_benchmark: " << e.what() << "\n";
    return 1;
  }
}
