#include "console/console.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/json.hpp"

namespace ptc::console {
namespace {

/// All numeric output goes through the shortest round-trip formatter, so a
/// transcript is byte-stable and parses back to the exact double.
std::string num(double x) { return json::format_number(x); }

std::string count(std::size_t n) { return std::to_string(n); }

/// Strict decimal parse for console arguments (no signs, no suffixes, no
/// wrap-around past size_t's range).
bool parse_size(const std::string& s, std::size_t* out) {
  std::size_t value = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || stop != end) return false;
  *out = value;
  return true;
}

}  // namespace

Console::Console(serve::Server& server, serve::ModelRegistry& registry,
                 runtime::Accelerator& accelerator)
    : server_(server), registry_(registry), accelerator_(accelerator) {}

void Console::set_run_callback(std::function<serve::ServeReport()> callback) {
  run_callback_ = std::move(callback);
}

void Console::set_token_run_callback(
    std::function<serve::TokenServeReport()> callback) {
  token_run_callback_ = std::move(callback);
}

void Console::set_report(serve::ServeReport report) {
  report_ = std::move(report);
}

void Console::set_token_report(serve::TokenServeReport report) {
  token_report_ = std::move(report);
}

std::string Console::error(const std::string& message) {
  errors_.push_back("-100,\"" + message + "\"");
  return "ERR: " + message;
}

std::string Console::eval(const std::string& line) {
  ScpiCommand command;
  std::string parse_error;
  if (!parse_scpi(line, &command, &parse_error)) {
    return error(parse_error);
  }
  if (command.empty()) return "";
  return dispatch(command);
}

std::string Console::dispatch(const ScpiCommand& command) {
  const std::string& head = command.mnemonics.front();

  if (mnemonic_matches(head, "*IDN")) {
    if (!command.query) return error("*IDN is a query (use *IDN?)");
    return cmd_idn();
  }
  if (mnemonic_matches(head, "EXIT") || mnemonic_matches(head, "QUIT")) {
    exit_requested_ = true;
    return "OK bye";
  }
  if (mnemonic_matches(head, "HELP")) return cmd_help();
  if (mnemonic_matches(head, "SNAPshot")) {
    if (!command.query) return error("SNAP is a query (use SNAP?)");
    return cmd_snapshot();
  }
  if (mnemonic_matches(head, "SERVE")) {
    if (command.mnemonics.size() == 2 &&
        mnemonic_matches(command.mnemonics[1], "RUN") && command.query) {
      return cmd_serve_run();
    }
    return error("unknown SERVE command (try SERVE:RUN?)");
  }
  if (mnemonic_matches(head, "TOKen")) {
    if (command.mnemonics.size() == 2 &&
        mnemonic_matches(command.mnemonics[1], "RUN") && command.query) {
      return cmd_token_run();
    }
    return error("unknown TOKen command (try TOK:RUN?)");
  }
  if (mnemonic_matches(head, "MEASure")) return cmd_measure(command);
  if (mnemonic_matches(head, "FLEET")) return cmd_fleet(command);
  if (mnemonic_matches(head, "TENant")) return cmd_tenant(command);
  if (mnemonic_matches(head, "SLO")) return cmd_slo(command);
  if (mnemonic_matches(head, "HEALth")) return cmd_health(command);
  if (mnemonic_matches(head, "ALERT")) {
    if (command.mnemonics.size() == 2 &&
        mnemonic_matches(command.mnemonics[1], "LIST") && command.query) {
      return cmd_alerts();
    }
    return error("unknown ALERT command (try ALERT:LIST?)");
  }
  if (mnemonic_matches(head, "FAULT")) return cmd_fault(command);
  if (mnemonic_matches(head, "RECALibrate")) return cmd_recalibrate();
  if (mnemonic_matches(head, "TRACE")) return cmd_trace(command);
  if (mnemonic_matches(head, "METRics")) return cmd_metrics(command);
  if (mnemonic_matches(head, "MODEL")) return cmd_model(command);
  if (mnemonic_matches(head, "SYSTem")) {
    if (command.mnemonics.size() == 2 &&
        mnemonic_matches(command.mnemonics[1], "ERRor") && command.query) {
      if (errors_.empty()) return "0,\"No error\"";
      std::string oldest = errors_.front();
      errors_.pop_front();
      return oldest;
    }
    return error("unknown SYSTem command (try SYST:ERR?)");
  }
  return error("undefined header \"" + head + "\" (try HELP)");
}

std::string Console::cmd_idn() const {
  return "ptc,photonic-tensor-core,cores=" + count(accelerator_.core_count()) +
         ",v1";
}

std::string Console::cmd_snapshot() const {
  std::ostringstream out;
  out << "completed=" << count(report_.completed)
      << " batches=" << count(report_.dispatched_batches)
      << " makespan_s=" << num(report_.makespan)
      << " p99_s=" << num(report_.total.p99)
      << " throughput_rps=" << num(report_.throughput())
      << " energy_J=" << num(report_.energy)
      << " warm_fraction=" << num(report_.warm_fraction())
      << " accuracy=" << num(report_.accuracy())
      << " recalibrations=" << count(report_.recalibrations)
      << " max_detuning_K=" << num(report_.max_abs_detuning)
      << " probes=" << count(report_.probes)
      << " probe_overhead=" << num(report_.probe_overhead())
      << " faults=" << count(report_.faults)
      << " evictions=" << count(report_.core_evictions)
      << " shed=" << count(report_.shed)
      << " availability=" << num(report_.availability());
  // Token-serving summary, once a TOK:RUN? has happened.
  if (token_report_.steps > 0) {
    out << " tokens=" << count(token_report_.tokens)
        << " token_steps=" << count(token_report_.steps)
        << " tokens_per_s=" << num(token_report_.tokens_per_second())
        << " energy_per_token_J=" << num(token_report_.energy_per_token())
        << " kv_peak_rows=" << count(token_report_.kv_peak_rows)
        << " preemptions=" << count(token_report_.preemptions);
  }
  return out.str();
}

std::string Console::cmd_token_run() {
  if (!token_run_callback_) {
    return error("no token scenario attached (TOK:RUN? needs a callback)");
  }
  token_report_ = token_run_callback_();
  return "OK completed=" + count(token_report_.completed) +
         " steps=" + count(token_report_.steps) +
         " tokens=" + count(token_report_.tokens) +
         " p99_s=" + num(token_report_.total.p99) +
         " makespan_s=" + num(token_report_.makespan);
}

std::string Console::cmd_serve_run() {
  if (!run_callback_) {
    return error("no scenario attached (SERVE:RUN? needs a run callback)");
  }
  report_ = run_callback_();
  return "OK completed=" + count(report_.completed) +
         " batches=" + count(report_.dispatched_batches) +
         " makespan_s=" + num(report_.makespan);
}

std::string Console::cmd_measure(const ScpiCommand& command) {
  if (command.mnemonics.size() != 2 || !command.query) {
    return error("unknown MEASure command (try MEAS:LAT? P99)");
  }
  const std::string& what = command.mnemonics[1];

  if (mnemonic_matches(what, "LATency")) {
    if (command.args.empty()) {
      return error("MEAS:LAT? needs a statistic (P50|P95|P99|MAX|MEAN)");
    }
    serve::LatencyStats stats = report_.total;
    if (command.args.size() >= 2) {
      const std::string& tenant = command.args[1];
      if (report_.tenant_cost(tenant) == nullptr) {
        return error("unknown tenant \"" + tenant + "\"");
      }
      if (report_.requests.empty()) {
        return error("per-tenant latency needs keep_records");
      }
      stats = report_.tenant_total(tenant);
    }
    const std::string stat = scpi_upper(command.args[0]);
    if (stat == "P50") return num(stats.p50);
    if (stat == "P95") return num(stats.p95);
    if (stat == "P99") return num(stats.p99);
    if (stat == "MAX") return num(stats.max);
    if (stat == "MEAN") return num(stats.mean);
    if (stat == "COUNT") return count(stats.count);
    return error("unknown statistic \"" + command.args[0] + "\"");
  }
  if (mnemonic_matches(what, "THRoughput")) return num(report_.throughput());
  if (mnemonic_matches(what, "ACCuracy")) return num(report_.accuracy());
  if (mnemonic_matches(what, "UTILization")) return num(report_.utilization());
  if (mnemonic_matches(what, "ENERgy")) {
    if (command.args.empty()) return num(report_.energy);
    const serve::TenantCost* cost = report_.tenant_cost(command.args[0]);
    if (cost == nullptr) {
      return error("unknown tenant \"" + command.args[0] + "\"");
    }
    return num(cost->energy_joules);
  }
  return error("unknown MEASure command \"" + what + "\"");
}

std::string Console::cmd_fleet(const ScpiCommand& command) {
  if (command.mnemonics.size() < 2 || !command.query) {
    return error("unknown FLEET command (try FLEET:CORES?)");
  }
  const std::string& sub = command.mnemonics[1];

  if (command.mnemonics.size() == 2) {
    if (mnemonic_matches(sub, "CORES")) {
      return count(accelerator_.core_count());
    }
    if (mnemonic_matches(sub, "DETUNing")) {
      return num(accelerator_.max_abs_detuning());
    }
    if (mnemonic_matches(sub, "EPOCH")) {
      return count(accelerator_.core(0).calibration_epoch());
    }
    return error("unknown FLEET command \"" + sub + "\"");
  }

  std::size_t core = 0;
  if (command.mnemonics.size() == 3 && mnemonic_index(sub, "CORE", &core)) {
    if (core >= accelerator_.core_count()) {
      return error("core index " + count(core) + " out of range (fleet has " +
                   count(accelerator_.core_count()) + ")");
    }
    const std::string& leaf = command.mnemonics[2];
    if (mnemonic_matches(leaf, "DETUNing")) {
      return num(accelerator_.core(core).thermal_detuning());
    }
    if (mnemonic_matches(leaf, "EPOCH")) {
      return count(accelerator_.core(core).calibration_epoch());
    }
    if (mnemonic_matches(leaf, "HEALth")) {
      return cmd_core_health(core);
    }
    if (mnemonic_matches(leaf, "BUSY")) {
      telemetry::MetricsRegistry* metrics = server_.metrics();
      if (metrics == nullptr) return error("no metrics registry attached");
      const telemetry::LabelSet labels = {{"core", count(core)}};
      if (!metrics->contains("fleet_core_busy_seconds_total", labels)) {
        return num(0.0);
      }
      return num(
          metrics->counter("fleet_core_busy_seconds_total", labels).value());
    }
    return error("unknown FLEET:CORE command \"" + leaf + "\"");
  }
  return error("unknown FLEET command");
}

std::string Console::cmd_tenant(const ScpiCommand& command) {
  if (command.mnemonics.size() != 2 || !command.query) {
    return error("unknown TENant command (try TEN:LIST?)");
  }
  const std::string& sub = command.mnemonics[1];

  if (mnemonic_matches(sub, "LIST")) {
    // Batch tenants first, then token-serving tenants (a tenant billed in
    // both runs is listed once).
    std::string out;
    for (const serve::TenantCost& cost : report_.tenant_costs) {
      if (!out.empty()) out += ",";
      out += cost.tenant;
    }
    for (const serve::TenantCost& cost : token_report_.tenant_costs) {
      if (report_.tenant_cost(cost.tenant) != nullptr) continue;
      if (!out.empty()) out += ",";
      out += cost.tenant;
    }
    return out.empty() ? "none" : out;
  }
  if (mnemonic_matches(sub, "COST")) {
    if (command.args.empty()) return error("TEN:COST? needs a tenant name");
    // Batch-serving row first; token-serving tenants answer from the last
    // TOK:RUN? report (same TenantCost shape, token fields live).
    const serve::TenantCost* cost = report_.tenant_cost(command.args[0]);
    if (cost == nullptr) cost = token_report_.tenant_cost(command.args[0]);
    if (cost == nullptr) {
      return error("unknown tenant \"" + command.args[0] + "\"");
    }
    std::ostringstream out;
    out << "tenant=" << cost->tenant << " requests=" << count(cost->requests)
        << " batches=" << count(cost->batches)
        << " passes=" << count(cost->passes)
        << " warm_passes=" << count(cost->warm_passes)
        << " service_s=" << num(cost->service_seconds)
        << " busy_s=" << num(cost->busy_seconds)
        << " energy_J=" << num(cost->energy_joules)
        << " recalibrations=" << count(cost->recalibrations)
        << " recal_s=" << num(cost->recalibration_seconds)
        << " probes=" << count(cost->probes)
        << " probe_s=" << num(cost->probe_seconds)
        << " faults=" << count(cost->faults)
        << " fault_s=" << num(cost->fault_seconds)
        << " shed=" << count(cost->shed_requests)
        << " tokens=" << count(cost->tokens)
        << " kv_row_s=" << num(cost->kv_row_seconds)
        << " kv_evicted_rows=" << count(cost->kv_evicted_rows)
        << " preemptions=" << count(cost->preemptions);
    return out.str();
  }
  return error("unknown TENant command \"" + sub + "\"");
}

std::string Console::cmd_slo(const ScpiCommand& command) {
  if (command.mnemonics.size() != 2 || !command.query) {
    return error("unknown SLO command (try SLO:BURN?)");
  }
  const std::string& sub = command.mnemonics[1];
  const std::vector<serve::SloMonitor>& monitors = server_.slos();

  if (mnemonic_matches(sub, "LIST")) {
    if (monitors.empty()) return "none";
    std::string out;
    for (const serve::SloMonitor& monitor : monitors) {
      if (!out.empty()) out += ",";
      out += monitor.objective().name;
    }
    return out;
  }
  if (mnemonic_matches(sub, "BURN")) {
    if (monitors.empty()) return "none";
    std::ostringstream out;
    bool first = true;
    for (const serve::SloMonitor& monitor : monitors) {
      if (!command.args.empty() &&
          monitor.objective().name != command.args[0]) {
        continue;
      }
      if (!first) out << "\n";
      first = false;
      out << monitor.objective().name << " short=" << num(monitor.short_burn())
          << " long=" << num(monitor.long_burn())
          << " breaching=" << (monitor.breaching() ? 1 : 0)
          << " observed=" << count(monitor.observed())
          << " bad=" << count(monitor.bad())
          << " alerts=" << count(monitor.alerts().size());
    }
    if (first) return error("unknown SLO \"" + command.args[0] + "\"");
    return out.str();
  }
  return error("unknown SLO command \"" + sub + "\"");
}

std::string Console::cmd_core_health(std::size_t core) {
  fleet::FleetHealthMonitor* health = server_.health();
  if (health == nullptr) {
    return error("no health monitor (serve with probe_period > 0 first)");
  }
  const fleet::DriftEstimator& estimator = health->estimator(core);
  const fleet::AnomalyDetector& detector = health->detector(core);
  telemetry::TimeSeriesStore& store = health->store();
  // Last raw reading of one of this core's sensor channels (0 before the
  // first sweep — the channels appear on the first sample()).
  const auto last = [&](const char* sensor) {
    const std::string name = "core" + count(core) + "/" + sensor;
    return store.contains(name) ? store.channel(name).last_value() : 0.0;
  };
  std::ostringstream out;
  out << "core=" << count(core) << " estimate_K=" << num(estimator.estimate())
      << " raw_K=" << num(estimator.raw())
      << " slope_K_per_s=" << num(estimator.slope())
      << " probe_transmission=" << num(last("probe_transmission"))
      << " heater_duty=" << num(last("heater_duty"))
      << " epoch=" << count(accelerator_.core(core).calibration_epoch())
      << " psram_bit_flips=" << num(last("psram_bit_flips"))
      << " adc_saturation_rate=" << num(last("adc_saturation_rate"))
      << " anomalous=" << (detector.anomalous() ? 1 : 0)
      << " score=" << num(detector.score())
      << " samples=" << count(health->samples_taken());
  return out.str();
}

std::string Console::cmd_health(const ScpiCommand& command) {
  if (command.mnemonics.size() != 2 || !command.query) {
    return error("unknown HEALth command (try HEAL:ALERts?)");
  }
  const std::string& sub = command.mnemonics[1];
  if (mnemonic_matches(sub, "ALERts")) {
    fleet::FleetHealthMonitor* health = server_.health();
    if (health == nullptr) {
      return error("no health monitor (serve with probe_period > 0 first)");
    }
    if (health->alerts().empty()) return "none";
    std::ostringstream out;
    bool first = true;
    for (const fleet::HealthAlert& alert : health->alerts()) {
      if (!first) out << "\n";
      first = false;
      out << alert.name << " t=" << num(alert.time)
          << " core=" << count(alert.core) << " value=" << num(alert.value)
          << " score=" << num(alert.score);
    }
    return out.str();
  }
  return error("unknown HEALth command \"" + sub + "\"");
}

std::string Console::cmd_alerts() const {
  std::ostringstream out;
  bool any = false;
  for (const serve::SloMonitor& monitor : server_.slos()) {
    for (const serve::SloAlert& alert : monitor.alerts()) {
      if (any) out << "\n";
      any = true;
      out << monitor.objective().name << " t=" << num(alert.time)
          << " short=" << num(alert.short_burn)
          << " long=" << num(alert.long_burn);
    }
  }
  return any ? out.str() : "none";
}

std::string Console::cmd_fault(const ScpiCommand& command) {
  // FAULT? — fleet-wide registry summary.
  if (command.mnemonics.size() == 1) {
    if (!command.query) return error("FAULT alone is a query (use FAULT?)");
    std::ostringstream out;
    out << "injected=" << count(accelerator_.faults_injected())
        << " evicted=" << count(accelerator_.evicted_count())
        << " active=" << count(accelerator_.active_core_count())
        << " health=";
    for (std::size_t i = 0; i < accelerator_.core_count(); ++i) {
      if (i > 0) out << ",";
      out << runtime::to_string(accelerator_.core_health(i));
      if (accelerator_.core_evicted(i)) out << "(evicted)";
    }
    return out.str();
  }
  if (command.mnemonics.size() != 2) {
    return error("unknown FAULT command (try FAULT:INJect <kind> <core>)");
  }
  const std::string& sub = command.mnemonics[1];
  // Core index argument shared by every subcommand; INJect takes it second
  // (after the kind), the others first.
  const auto parse_core = [&](std::size_t arg_index,
                              std::size_t* core) -> std::string {
    if (command.args.size() <= arg_index) return "missing core index";
    if (!parse_size(command.args[arg_index], core)) {
      return "bad core index \"" + command.args[arg_index] + "\"";
    }
    if (*core >= accelerator_.core_count()) {
      return "core index " + count(*core) + " out of range (fleet has " +
             count(accelerator_.core_count()) + ")";
    }
    return "";
  };

  if (mnemonic_matches(sub, "INJect")) {
    if (command.args.empty()) {
      return error("FAULT:INJ needs a kind (DEADRINGS|HEATER|ADC) and core");
    }
    runtime::FaultEvent event;
    const std::string kind = scpi_upper(command.args[0]);
    if (kind == "DEADRINGS") {
      event.kind = runtime::FaultEvent::Kind::kDeadRings;
    } else if (kind == "HEATER") {
      event.kind = runtime::FaultEvent::Kind::kStuckHeater;
    } else if (kind == "ADC") {
      event.kind = runtime::FaultEvent::Kind::kAdcLadder;
    } else {
      return error("unknown fault kind \"" + command.args[0] +
                   "\" (DEADRINGS|HEATER|ADC)");
    }
    const std::string bad = parse_core(1, &event.core);
    if (!bad.empty()) return error(bad);
    // Optional third argument: rings latched (DEADRINGS) or the row whose
    // ladder dies (ADC); optional fourth: ring-site sampling seed.
    if (command.args.size() >= 3) {
      std::size_t extra = 0;
      if (!parse_size(command.args[2], &extra)) {
        return error("bad fault argument \"" + command.args[2] + "\"");
      }
      if (event.kind == runtime::FaultEvent::Kind::kAdcLadder) {
        if (extra >= accelerator_.core(event.core).rows()) {
          return error("ADC row " + count(extra) + " out of range");
        }
        event.row = extra;
      } else {
        event.count = extra;
      }
    }
    if (command.args.size() >= 4) {
      std::size_t seed = 0;
      if (!parse_size(command.args[3], &seed)) {
        return error("bad fault seed \"" + command.args[3] + "\"");
      }
      event.seed = static_cast<std::uint64_t>(seed) | 1u;
    }
    accelerator_.inject(event);
    const runtime::CoreHealth verdict = accelerator_.run_self_test(event.core);
    return "OK core=" + count(event.core) +
           " kind=" + runtime::to_string(event.kind) +
           " health=" + runtime::to_string(verdict) +
           " downtime_s=" + num(accelerator_.self_test_cost().latency);
  }
  if (mnemonic_matches(sub, "CLEar")) {
    runtime::FaultEvent event;
    event.kind = runtime::FaultEvent::Kind::kClear;
    const std::string bad = parse_core(0, &event.core);
    if (!bad.empty()) return error(bad);
    accelerator_.inject(event);
    const runtime::CoreHealth verdict = accelerator_.run_self_test(event.core);
    return "OK core=" + count(event.core) +
           " health=" + runtime::to_string(verdict) +
           (accelerator_.core_evicted(event.core) ? " evicted=1" : "");
  }
  if (mnemonic_matches(sub, "EVICt")) {
    std::size_t core = 0;
    const std::string bad = parse_core(0, &core);
    if (!bad.empty()) return error(bad);
    if (accelerator_.core_evicted(core)) {
      return error("core " + count(core) + " is already evicted");
    }
    if (accelerator_.active_core_count() <= 1) {
      return error("cannot evict the last active core");
    }
    accelerator_.evict_core(core);
    registry_.reset_residency();
    return "OK evicted=" + count(core) +
           " active=" + count(accelerator_.active_core_count());
  }
  if (mnemonic_matches(sub, "READmit")) {
    std::size_t core = 0;
    const std::string bad = parse_core(0, &core);
    if (!bad.empty()) return error(bad);
    if (!accelerator_.core_evicted(core)) {
      return error("core " + count(core) + " is not evicted");
    }
    if (accelerator_.core_health(core) == runtime::CoreHealth::kFailed) {
      return error("core " + count(core) +
                   " is FAILED (FAULT:CLEar it first)");
    }
    accelerator_.readmit_core(core);
    registry_.reset_residency();
    return "OK readmitted=" + count(core) +
           " active=" + count(accelerator_.active_core_count());
  }
  return error("unknown FAULT command \"" + sub + "\"");
}

std::string Console::cmd_recalibrate() {
  const runtime::BatchCost downtime = accelerator_.recalibrate();
  return "OK downtime_s=" + num(downtime.latency) +
         " epoch=" + count(accelerator_.core(0).calibration_epoch());
}

std::string Console::cmd_trace(const ScpiCommand& command) {
  if (command.mnemonics.size() != 2) {
    return error("unknown TRACE command (try TRACE:DUMP <path>)");
  }
  const std::string& sub = command.mnemonics[1];
  telemetry::Tracer* tracer = server_.tracer();
  if (mnemonic_matches(sub, "SIZE")) {
    if (!command.query) return error("TRACE:SIZE is a query");
    return count(tracer == nullptr ? 0 : tracer->size());
  }
  if (mnemonic_matches(sub, "DUMP")) {
    if (tracer == nullptr) return error("no tracer attached");
    if (command.args.empty()) return error("TRACE:DUMP needs a file path");
    try {
      tracer->write_chrome_json_file(command.args[0]);
    } catch (const std::exception& e) {
      return error(e.what());
    }
    return "OK events=" + count(tracer->size()) + " path=" + command.args[0];
  }
  return error("unknown TRACE command \"" + sub + "\"");
}

std::string Console::cmd_metrics(const ScpiCommand& command) {
  if (command.mnemonics.size() != 2 || !command.query) {
    return error("unknown METRics command (try METR:PROM?)");
  }
  telemetry::MetricsRegistry* metrics = server_.metrics();
  if (metrics == nullptr) return error("no metrics registry attached");
  const std::string& sub = command.mnemonics[1];
  if (mnemonic_matches(sub, "PROMetheus")) {
    std::string text = metrics->prometheus_text();
    while (!text.empty() && text.back() == '\n') text.pop_back();
    return text;
  }
  if (mnemonic_matches(sub, "JSON")) return metrics->to_json();
  return error("unknown METRics command \"" + sub + "\"");
}

std::string Console::cmd_model(const ScpiCommand& command) {
  if (command.mnemonics.size() == 2 &&
      mnemonic_matches(command.mnemonics[1], "SCHEDule") && command.query) {
    if (command.args.empty()) return error("MODEL:SCHED? needs a model name");
    if (!registry_.contains(command.args[0])) {
      return error("unknown model \"" + command.args[0] + "\"");
    }
    std::string dump = registry_.schedule_dump(command.args[0]);
    while (!dump.empty() && dump.back() == '\n') dump.pop_back();
    return dump;
  }
  return error("unknown MODEL command (try MODEL:SCHED? <name>)");
}

std::string Console::cmd_help() const {
  return "*IDN?                          identify the instrument\n"
         "SNAPshot?                      one-line fleet summary\n"
         "SERVE:RUN?                     re-run the attached scenario\n"
         "TOKen:RUN?                     run the token-serving scenario\n"
         "MEASure:LATency? <stat> [ten]  P50|P95|P99|MAX|MEAN|COUNT [s]\n"
         "MEASure:THRoughput?            completed requests per second\n"
         "MEASure:ACCuracy?              fraction matching float reference\n"
         "MEASure:UTILization?           busy / (cores * makespan)\n"
         "MEASure:ENERgy? [tenant]       fleet or per-tenant energy [J]\n"
         "FLEET:CORES?                   fleet size\n"
         "FLEET:DETUNing?                worst |thermal detuning| [K]\n"
         "FLEET:CORE<i>:DETUNing?        one core's detuning [K]\n"
         "FLEET:CORE<i>:EPOCH?           one core's calibration epoch\n"
         "FLEET:CORE<i>:BUSY?            one core's attributed busy [s]\n"
         "FLEET:CORE<i>:HEALth?          one core's sensor/estimator summary\n"
         "TENant:LIST?                   tenants billed in the last run\n"
         "TENant:COST? <tenant>          full cost attribution row\n"
         "SLO:LIST?                      registered SLO names\n"
         "SLO:BURN? [name]               burn rates per objective\n"
         "ALERT:LIST?                    burn-rate alert firings\n"
         "HEALth:ALERts?                 health anomaly alert firings\n"
         "FAULT?                         fault registry / per-core health\n"
         "FAULT:INJect <kind> <core>     DEADRINGS|HEATER|ADC [arg] [seed]\n"
         "FAULT:CLEar <core>             field repair: clear injected faults\n"
         "FAULT:EVICt <core>             drop a core from the rotation\n"
         "FAULT:READmit <core>           return an evicted core to service\n"
         "RECALibrate                    re-lock every core now\n"
         "TRACE:SIZE?                    trace events buffered\n"
         "TRACE:DUMP <path>              write Chrome trace JSON\n"
         "METRics:PROMetheus?            metrics, Prometheus text format\n"
         "METRics:JSON?                  metrics, JSON export\n"
         "MODEL:SCHEDule? <name>         a model's tile schedule\n"
         "SYSTem:ERRor?                  pop the oldest queued error\n"
         "EXIT                           leave the console";
}

std::size_t Console::run_stream(std::istream& in, std::ostream& out,
                                const StreamOptions& options) {
  std::size_t errors = 0;
  std::string line;
  while (!exit_requested_) {
    if (options.prompt) out << "ptc> " << std::flush;
    if (!std::getline(in, line)) break;
    if (options.echo) out << "> " << line << "\n";
    const std::string reply = eval(line);
    if (reply.rfind("ERR:", 0) == 0) ++errors;
    if (!reply.empty()) out << reply << "\n";
  }
  return errors;
}

}  // namespace ptc::console
