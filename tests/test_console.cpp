// Operator console tests: the SCPI grammar, the command surface against a
// live serving stack, socket sessions driven over socketpair(), and the CI
// golden contract — the committed demo script replayed at several host
// thread counts must produce output byte-identical to
// tests/golden/console_transcript.txt.  On divergence the test writes
// <golden>.actual next to the golden for diffing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "console/console.hpp"
#include "console/demo.hpp"
#include "console/scpi.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "golden.hpp"

namespace {

using namespace ptc;
using console::Console;
using console::DemoScenario;
using console::ScpiCommand;
using console::StreamOptions;

std::string demo_script_path() {
  // The script CI runs through tools/ptc_console — the test replays the
  // committed file, not a copy, so tool and test can never drift apart.
  const std::string self = golden::tests_dir();
  return self.substr(0, self.find_last_of('/')) + "/tools/console_demo.scpi";
}

// --- SCPI grammar -----------------------------------------------------------

TEST(Scpi, ShortAndLongFormsMatchCaseInsensitively) {
  EXPECT_TRUE(console::mnemonic_matches("MEAS", "MEASure"));
  EXPECT_TRUE(console::mnemonic_matches("meas", "MEASure"));
  EXPECT_TRUE(console::mnemonic_matches("MEASU", "MEASure"));
  EXPECT_TRUE(console::mnemonic_matches("Measure", "MEASure"));
  // Shorter than the short form, or past the long form, or diverging.
  EXPECT_FALSE(console::mnemonic_matches("MEA", "MEASure"));
  EXPECT_FALSE(console::mnemonic_matches("MEASURES", "MEASure"));
  EXPECT_FALSE(console::mnemonic_matches("MEAT", "MEASure"));
  EXPECT_FALSE(console::mnemonic_matches("", "MEASure"));
}

TEST(Scpi, SpecWithNoTailIsExact) {
  EXPECT_TRUE(console::mnemonic_matches("snap", "SNAPshot"));
  EXPECT_TRUE(console::mnemonic_matches("HELP", "HELP"));
  EXPECT_FALSE(console::mnemonic_matches("HEL", "HELP"));
  EXPECT_FALSE(console::mnemonic_matches("HELPS", "HELP"));
}

TEST(Scpi, IndexedMnemonicParsesDecimalSuffix) {
  std::size_t index = 99;
  EXPECT_TRUE(console::mnemonic_index("CORE2", "CORE", &index));
  EXPECT_EQ(index, 2u);
  EXPECT_TRUE(console::mnemonic_index("core15", "CORE", &index));
  EXPECT_EQ(index, 15u);
  EXPECT_FALSE(console::mnemonic_index("CORE", "CORE", &index));   // no digit
  EXPECT_FALSE(console::mnemonic_index("CORE2X", "CORE", &index));  // tail junk
  EXPECT_FALSE(console::mnemonic_index("BUS2", "CORE", &index));
  // 2^64 + 2 overflows size_t; it must not wrap around to core 2.
  EXPECT_FALSE(
      console::mnemonic_index("CORE18446744073709551618", "CORE", &index));
}

TEST(Scpi, ParseSplitsHeaderQueryAndArgs) {
  ScpiCommand command;
  std::string error;
  ASSERT_TRUE(console::parse_scpi("  meas:lat?  P99, mobile ", &command,
                                  &error));
  ASSERT_EQ(command.mnemonics.size(), 2u);
  EXPECT_EQ(command.mnemonics[0], "meas");
  EXPECT_EQ(command.mnemonics[1], "lat");
  EXPECT_TRUE(command.query);
  ASSERT_EQ(command.args.size(), 2u);
  EXPECT_EQ(command.args[0], "P99");
  EXPECT_EQ(command.args[1], "mobile");
}

TEST(Scpi, CommentsAndBlankLinesParseEmpty) {
  ScpiCommand command;
  std::string error;
  ASSERT_TRUE(console::parse_scpi("# a comment", &command, &error));
  EXPECT_TRUE(command.empty());
  ASSERT_TRUE(console::parse_scpi("   ", &command, &error));
  EXPECT_TRUE(command.empty());
  ASSERT_TRUE(console::parse_scpi("SNAP? ; trailing comment", &command,
                                  &error));
  ASSERT_EQ(command.mnemonics.size(), 1u);
  EXPECT_TRUE(command.query);
}

TEST(Scpi, MalformedHeadersAreRejected) {
  ScpiCommand command;
  std::string error;
  EXPECT_FALSE(console::parse_scpi(":LAT?", &command, &error));
  EXPECT_FALSE(console::parse_scpi("MEAS::LAT?", &command, &error));
  EXPECT_FALSE(console::parse_scpi("MEAS:?", &command, &error));
  EXPECT_FALSE(error.empty());
}

// --- console command surface ------------------------------------------------

TEST(Console, UnknownCommandQueuesSystemError) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  const std::string reply = console.eval("BOGUS:THING?");
  EXPECT_EQ(reply.rfind("ERR:", 0), 0u) << reply;
  // SYST:ERR? pops the queued message, then reports an empty queue.
  EXPECT_NE(console.eval("SYST:ERR?"), "0,\"No error\"");
  EXPECT_EQ(console.eval("SYST:ERR?"), "0,\"No error\"");
  // The metrics export is METR:PROM? alone.
  const std::string json_reply = console.eval("METR:JSON?");
  EXPECT_EQ(json_reply.rfind("ERR:", 0), 0u) << json_reply;
  EXPECT_NE(console.eval("SYST:ERR?"), "0,\"No error\"");
}

/// True when `entry` is one SCPI error-queue response: a decimal code, a
/// comma, and one string in double quotes whose embedded quotes are all
/// doubled (IEEE 488.2 string data).
bool is_scpi_error_entry(const std::string& entry) {
  const std::size_t comma = entry.find(',');
  if (comma == std::string::npos || comma == 0) return false;
  for (std::size_t i = 0; i < comma; ++i) {
    const bool sign = i == 0 && entry[i] == '-' && comma > 1;
    if (!sign && (entry[i] < '0' || entry[i] > '9')) return false;
  }
  if (entry.size() < comma + 3 || entry[comma + 1] != '"' ||
      entry.back() != '"') {
    return false;
  }
  for (std::size_t i = comma + 2; i + 1 < entry.size(); ++i) {
    if (entry[i] != '"') continue;
    if (i + 2 >= entry.size() || entry[i + 1] != '"') return false;
    ++i;  // skip the doubling quote
  }
  return true;
}

TEST(Console, ErrorQueueQuotesMessagesAndOverflowsAtItsCapacity) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  // The unknown header is echoed in quotes; the queued string doubles them.
  EXPECT_EQ(console.eval("BOGUS:THING?"),
            R"x(ERR: undefined header "BOGUS" (try HELP))x");
  EXPECT_EQ(console.eval("SYST:ERR?"),
            R"x(-100,"undefined header ""BOGUS"" (try HELP)")x");
  EXPECT_EQ(console.eval("SYST:ERR?"), "0,\"No error\"");

  // Bad 60 KB headers, each under the socket's line cap, queue at most
  // the capacity; the newest entry then reports the overflow.
  const std::size_t bad = Console::kErrorQueueCapacity + 8;
  for (std::size_t i = 0; i < bad; ++i) {
    const std::string reply =
        console.eval(std::string(60000, 'X') + std::to_string(i) + "?");
    ASSERT_EQ(reply.rfind("ERR:", 0), 0u);
  }
  std::vector<std::string> drained;
  for (std::string entry = console.eval("SYST:ERR?");
       entry != "0,\"No error\""; entry = console.eval("SYST:ERR?")) {
    EXPECT_TRUE(is_scpi_error_entry(entry)) << entry.substr(0, 80);
    drained.push_back(entry);
    ASSERT_LE(drained.size(), bad);
  }
  ASSERT_EQ(drained.size(), Console::kErrorQueueCapacity);
  EXPECT_NE(drained.front().find("X0\"\""), std::string::npos);  // oldest kept
  EXPECT_EQ(drained.back(), "-350,\"Queue overflow\"");
  // Draining frees the queue: the next error queues normally.
  console.eval("BOGUS?");
  EXPECT_EQ(console.eval("SYST:ERR?"),
            R"x(-100,"undefined header ""BOGUS"" (try HELP)")x");
}

TEST(Console, CoreIndexOutsideTheFleetAnswersError) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  EXPECT_EQ(console.eval("FLEET:CORE99:EPOCH?").rfind("ERR:", 0), 0u);
  const std::string wrapped =
      console.eval("FLEET:CORE18446744073709551618:DETUN?");
  EXPECT_EQ(wrapped.rfind("ERR:", 0), 0u) << wrapped;
}

TEST(Console, QueriesBeforeAnyRunAnswerEmptyNotCrash) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  // No run yet: scalar stats read as zero, tenant queries find nobody.
  EXPECT_EQ(console.eval("MEAS:LAT? P99"), "0");
  EXPECT_EQ(console.eval("TEN:LIST?"), "none");
  EXPECT_EQ(console.eval("TEN:COST? mobile").rfind("ERR:", 0), 0u);
}

TEST(Console, ServeRunPopulatesReportAndTenants) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  const std::string run = console.eval("SERVE:RUN?");
  EXPECT_EQ(run.rfind("OK ", 0), 0u) << run;
  EXPECT_EQ(console.eval("TEN:LIST?"), "(fleet),embedded,mobile");
  EXPECT_EQ(console.eval("TEN:COST? nobody").rfind("ERR:", 0), 0u);
  // The fleet row answers unquoted, parens and all.
  const std::string fleet = console.eval("TEN:COST? (fleet)");
  EXPECT_EQ(fleet.rfind("tenant=(fleet)", 0), 0u) << fleet;
}

TEST(Console, TokenRunPopulatesTokenReportAndChatTenants) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  const std::string run = console.eval("TOK:RUN?");
  EXPECT_EQ(run.rfind("OK ", 0), 0u) << run;
  // The chat tenants answer tenant queries with live token/KV figures.
  EXPECT_EQ(console.eval("TEN:LIST?"), "chat-free,chat-pro");
  const std::string cost = console.eval("TEN:COST? chat-pro");
  EXPECT_EQ(cost.rfind("tenant=chat-pro", 0), 0u) << cost;
  EXPECT_NE(cost.find(" tokens="), std::string::npos) << cost;
  EXPECT_NE(cost.find(" kv_row_s="), std::string::npos) << cost;
  // SNAP? grows the token-serving summary once a token run exists.
  const std::string snap = console.eval("SNAP?");
  EXPECT_NE(snap.find(" token_steps="), std::string::npos) << snap;
  EXPECT_NE(snap.find(" kv_peak_rows="), std::string::npos) << snap;
  // A batch run afterwards lists both tenant families.
  console.eval("SERVE:RUN?");
  EXPECT_EQ(console.eval("TEN:LIST?"),
            "(fleet),embedded,mobile,chat-free,chat-pro");
}

TEST(Console, MeasureQueriesAnswerTokenTenants) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  console.eval("SERVE:RUN?");
  console.eval("TOK:RUN?");
  // A tenant TEN:LIST? names answers MEAS queries from the same row
  // TEN:COST? prints — here the last TOK:RUN? report's.
  const std::string cost = console.eval("TEN:COST? chat-pro");
  const std::size_t at = cost.find(" energy_J=");
  ASSERT_NE(at, std::string::npos) << cost;
  const std::size_t begin = at + std::string(" energy_J=").size();
  EXPECT_EQ(console.eval("MEAS:ENER? chat-pro"),
            cost.substr(begin, cost.find(' ', begin) - begin));
  EXPECT_EQ(console.eval("MEAS:LAT? COUNT chat-free"), "3");
  const std::string p99 = console.eval("MEAS:LAT? P99 chat-pro");
  ASSERT_EQ(p99.rfind("ERR:", 0), std::string::npos) << p99;
  EXPECT_GT(std::stod(p99), 0.0);
  // Batch tenants still answer from the batch report; strangers do not.
  EXPECT_NE(console.eval("MEAS:LAT? COUNT mobile"), "0");
  EXPECT_EQ(console.eval("MEAS:ENER? nobody").rfind("ERR:", 0), 0u);
  EXPECT_EQ(console.eval("MEAS:LAT? P99 nobody").rfind("ERR:", 0), 0u);
}

TEST(Console, RecalibrateActsOnTheLiveFleet) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  console.eval("SERVE:RUN?");  // drift the fleet
  const std::string reply = console.eval("RECAL");
  EXPECT_EQ(reply.rfind("OK", 0), 0u) << reply;
  // A fresh re-lock pins every heater back on resonance.
  EXPECT_EQ(console.eval("FLEET:DETUN?"), "0");
}

TEST(Console, CoreHealthAnswersFromTheLastSweepNotTheLiveDevice) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  console.eval("SERVE:RUN?");  // the demo policy probes: the monitor sweeps
  const fleet::SensorReading swept = demo.server().health()->reading(3);

  // The device moves on after the run: detuned, and its pSRAM rewritten.
  core::TensorCore& core = demo.accelerator().core(3);
  core.set_thermal_detuning(core.thermal_detuning() + 0.5);
  Rng rng(11);
  demo.accelerator().matmul(random_activations(2, 64, rng),
                            random_signed(64, 64, rng));
  ASSERT_NE(core.probe_transmission(), swept.probe_transmission);
  ASSERT_NE(core.psram().bit_flips(), swept.psram_bit_flips);

  // HEALth? still prints the last sweep's readings.
  const std::string health = console.eval("FLEET:CORE3:HEAL?");
  const auto field = [&health](const std::string& key) {
    const std::size_t at = health.find(" " + key + "=");
    if (at == std::string::npos) return std::string("<missing>");
    const std::size_t begin = at + key.size() + 2;
    return health.substr(begin, health.find(' ', begin) - begin);
  };
  EXPECT_EQ(field("probe_transmission"),
            json::format_number(swept.probe_transmission))
      << health;
  EXPECT_EQ(field("heater_duty"), json::format_number(swept.heater_duty))
      << health;
  EXPECT_EQ(field("psram_bit_flips"),
            json::format_number(static_cast<double>(swept.psram_bit_flips)))
      << health;
}

TEST(Console, FaultDrillInjectsEvictsClearsAndReadmits) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  EXPECT_EQ(console.eval("FAULT?"),
            "injected=0 evicted=0 active=4 health=OK,OK,OK,OK");

  // Break core 2 hard: the triggered self-test classifies it FAILED.
  const std::string inject = console.eval("FAULT:INJ DEADRINGS 2 64");
  EXPECT_EQ(inject.rfind("OK core=2 kind=DEADRINGS health=FAILED", 0), 0u)
      << inject;
  EXPECT_NE(inject.find("downtime_s="), std::string::npos);

  const std::string evict = console.eval("FAULT:EVIC 2");
  EXPECT_EQ(evict, "OK evicted=2 active=3");
  EXPECT_EQ(console.eval("FAULT?"),
            "injected=1 evicted=1 active=3 health=OK,OK,FAILED(evicted),OK");

  // A FAILED core cannot rejoin the rotation until it is repaired.
  EXPECT_EQ(console.eval("FAULT:READ 2").rfind("ERR:", 0), 0u);
  const std::string clear = console.eval("FAULT:CLE 2");
  EXPECT_EQ(clear, "OK core=2 health=OK evicted=1");
  EXPECT_EQ(console.eval("FAULT:READ 2"), "OK readmitted=2 active=4");
  console.eval("SYST:ERR?");  // drain the queued readmit refusal
  EXPECT_EQ(console.eval("SYST:ERR?"), "0,\"No error\"");
}

TEST(Console, FaultCommandsRejectBadArguments) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  EXPECT_EQ(console.eval("FAULT").rfind("ERR:", 0), 0u);  // query-only
  EXPECT_EQ(console.eval("FAULT:INJ").rfind("ERR:", 0), 0u);
  EXPECT_EQ(console.eval("FAULT:INJ SOLAR 0").rfind("ERR:", 0), 0u);
  EXPECT_EQ(console.eval("FAULT:INJ DEADRINGS").rfind("ERR:", 0), 0u);
  EXPECT_EQ(console.eval("FAULT:INJ DEADRINGS 99").rfind("ERR:", 0), 0u);
  EXPECT_EQ(console.eval("FAULT:INJ DEADRINGS x").rfind("ERR:", 0), 0u);
  EXPECT_EQ(console.eval("FAULT:INJ ADC 0 9999").rfind("ERR:", 0), 0u);
  EXPECT_EQ(console.eval("FAULT:EVIC 99").rfind("ERR:", 0), 0u);
  // 2^64 + 2 must not wrap around to core 2.
  EXPECT_EQ(console.eval("FAULT:EVIC 18446744073709551618").rfind("ERR:", 0),
            0u);
  EXPECT_EQ(console.eval("FAULT:READ 0").rfind("ERR:", 0), 0u);  // not evicted
  EXPECT_EQ(console.eval("FAULT:CLE").rfind("ERR:", 0), 0u);

  // Evicting down to one core is allowed; the last core is not.
  EXPECT_EQ(console.eval("FAULT:EVIC 0"), "OK evicted=0 active=3");
  EXPECT_EQ(console.eval("FAULT:EVIC 0").rfind("ERR:", 0), 0u);  // twice
  EXPECT_EQ(console.eval("FAULT:EVIC 1"), "OK evicted=1 active=2");
  EXPECT_EQ(console.eval("FAULT:EVIC 2"), "OK evicted=2 active=1");
  EXPECT_EQ(console.eval("FAULT:EVIC 3").rfind("ERR:", 0), 0u);  // last one
}

TEST(Console, ServeRunStillWorksOnAnEvictedFleet) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  console.eval("FAULT:INJ DEADRINGS 1 64");
  console.eval("FAULT:EVIC 1");
  const std::string run = console.eval("SERVE:RUN?");
  EXPECT_EQ(run.rfind("OK ", 0), 0u) << run;
  // The scenario attaches no fault schedule, so console-injected state
  // survives the run and SNAP? reports a clean (no-shed) serving pass.
  const std::string snap = console.eval("SNAP?");
  EXPECT_NE(snap.find(" shed=0"), std::string::npos) << snap;
  EXPECT_NE(snap.find(" availability=1"), std::string::npos) << snap;
  EXPECT_EQ(console.eval("FAULT?").rfind("injected=1 evicted=1 active=3", 0),
            0u);
}

TEST(Console, ExitStopsTheStreamAndCountsErrors) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  std::istringstream in("NOPE?\nSNAP?\nEXIT\nSNAP?\n");
  std::ostringstream out;
  const std::size_t errors = console.run_stream(in, out);
  EXPECT_EQ(errors, 1u);
  EXPECT_TRUE(console.exit_requested());
  // The post-EXIT line is never evaluated.
  EXPECT_EQ(out.str().find("SNAP?"), std::string::npos);
}

// --- fuzzing ----------------------------------------------------------------

/// Mirrors dispatch's SYSTem:ERRor? branch: true for a line that pops the
/// error queue instead of answering.
bool pops_error_queue(const std::string& line) {
  ScpiCommand command;
  std::string parse_error;
  return console::parse_scpi(line, &command, &parse_error) &&
         command.query && command.mnemonics.size() == 2 &&
         console::mnemonic_matches(command.mnemonics[0], "SYSTem") &&
         console::mnemonic_matches(command.mnemonics[1], "ERRor");
}

TEST(ConsoleFuzz, RandomLinesAnswerOrQueueOneError) {
  // A small fleet with no run callbacks, no tracer and no metrics registry:
  // every command answers from device state or errors, and TRACE:DUMP has
  // nothing to write.
  runtime::Accelerator accelerator({.cores = 2});
  serve::ModelRegistry registry(accelerator);
  Rng model_rng(3);
  registry.add("mlp", nn::Mlp(8, 6, 4, model_rng));
  serve::Server server(registry);
  Console console(server, registry, accelerator);

  const std::vector<std::string> words = {
      "*IDN", "SNAP", "SNAPSHOT", "SERVE", "RUN", "TOK", "MEAS", "LAT",
      "THR", "ACC", "FLEET", "CORES", "CORE0", "CORE1", "CORE9", "EPOCH",
      "DETUN", "HEALTH", "TEN", "LIST", "COST", "SLO", "BURN", "HEAL",
      "ALERTS", "ALERT", "FAULT", "INJ", "EVICT", "READMIT", "CLEAR",
      "DEADRINGS", "HEATER", "ADC", "RECAL", "TRACE", "DUMP", "SIZE",
      "METR", "PROM", "MODEL", "SCHED", "mlp", "SYST", "ERR", "HELP",
      "EXIT", "P50", "P99", "MAX", "MEAN", "(fleet)"};
  const std::string punctuation = ":?;#,\" 0123456789";
  Rng rng(20261019);
  const auto random_line = [&] {
    std::string line;
    const std::size_t pieces = 1 + rng.below(8);
    for (std::size_t p = 0; p < pieces; ++p) {
      switch (rng.below(6)) {
        case 0:
        case 1:
          line += words[rng.below(words.size())];
          break;
        case 2:
        case 3:
          line += punctuation[rng.below(punctuation.size())];
          break;
        case 4:  // a token far longer than any mnemonic; one in 16 runs
                 // up to 60 kB, near the socket's 64 KiB line cap
          line += std::string(1 + rng.below(rng.below(16) == 0 ? 60000 : 600),
                              static_cast<char>('A' + rng.below(26)));
          break;
        default:  // random bytes; lines never carry their newline
          for (std::size_t b = rng.below(12); b > 0; --b) {
            const char c = static_cast<char>(rng.below(256));
            line += c == '\n' ? ' ' : c;
          }
      }
    }
    return line;
  };

  // The queue the console should hold: one entry per ERR reply, quotes
  // doubled, the newest replaced on overflow, popped by SYST:ERR?.
  std::deque<std::string> expected;
  const auto drain = [&] {
    for (std::size_t popped = 0;; ++popped) {
      const std::string entry = console.eval("SYST:ERR?");
      if (entry == "0,\"No error\"") {
        EXPECT_TRUE(expected.empty()) << expected.size() << " not popped";
        expected.clear();
        return;
      }
      ASSERT_LE(popped, Console::kErrorQueueCapacity);
      EXPECT_TRUE(is_scpi_error_entry(entry)) << entry.substr(0, 80);
      ASSERT_FALSE(expected.empty()) << "unexpected entry " << entry;
      EXPECT_EQ(entry, expected.front());
      expected.pop_front();
    }
  };
  for (int i = 0; i < 20000; ++i) {
    const std::string line =
        rng.below(64) == 0 ? std::string("SYST:ERR?") : random_line();
    const bool pops = pops_error_queue(line);
    const std::string reply = console.eval(line);
    if (reply.rfind("ERR: ", 0) == 0) {
      std::string entry = "-100,\"";
      for (const char c : reply.substr(5)) {
        entry += c;
        if (c == '"') entry += '"';
      }
      entry += '"';
      if (expected.size() == Console::kErrorQueueCapacity) {
        expected.back() = "-350,\"Queue overflow\"";
      } else {
        expected.push_back(entry);
      }
    } else if (pops) {
      if (expected.empty()) {
        EXPECT_EQ(reply, "0,\"No error\"");
      } else {
        EXPECT_EQ(reply, expected.front());
        expected.pop_front();
      }
    }
    if (i % 997 == 0) drain();
  }
  drain();
}

// --- socket sessions --------------------------------------------------------

std::string read_until_eof(int fd) {
  std::string out;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(ConsoleSocket, PeerThatClosesBeforeItsReplyEndsOnlyItsSession) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string request = "SERVE:RUN?\n";
  ASSERT_EQ(::write(fds[1], request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::close(fds[1]);
  // The reply has nowhere to go: the session ends, and no SIGPIPE takes
  // this process down with it.
  EXPECT_EQ(console.serve_connection(fds[0]), 0u);
  ::close(fds[0]);
  EXPECT_EQ(console.eval("TEN:LIST?"), "(fleet),embedded,mobile");
}

TEST(ConsoleSocket, OverLongLineDrawsOneErrorAndTheNextLineIsAnswered) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::size_t errors = 0;
  std::thread server([&] {
    errors = console.serve_connection(fds[0]);
    ::close(fds[0]);
  });
  const std::string input = std::string(1 << 20, 'A') + "\n*IDN?\n";
  for (std::size_t off = 0; off < input.size();) {
    const ssize_t n = ::write(fds[1], input.data() + off, input.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fds[1], SHUT_WR);
  const std::string replies = read_until_eof(fds[1]);
  server.join();
  ::close(fds[1]);
  EXPECT_EQ(replies, "ERR: command line longer than 65536 bytes\n" +
                         console.eval("*IDN?") + "\n");
  EXPECT_EQ(errors, 1u);
}

// --- golden transcript ------------------------------------------------------

/// Replays the committed demo script on `console` with ptc_console
/// --script's echo, returning the transcript.
std::string replay_demo_script(Console& console) {
  std::istringstream in(golden::read_file(demo_script_path()));
  std::ostringstream out;
  StreamOptions options;
  options.echo = true;  // matches ptc_console --script
  const std::size_t errors = console.run_stream(in, out, options);
  EXPECT_EQ(errors, 0u) << "demo script raised console errors";
  return out.str();
}

std::string transcript_for(std::size_t threads) {
  DemoScenario demo(threads);
  Console console = demo.make_console();
  return replay_demo_script(console);
}

TEST(Console, TranscriptIsByteIdenticalAcrossHostThreadCounts) {
  // The console answers only from modeled time and seeded state, so the
  // host thread-pool size must not leak into a single output byte.
  const std::string t1 = transcript_for(1);
  EXPECT_EQ(t1, transcript_for(2));
  EXPECT_EQ(t1, transcript_for(8));
}

TEST(Console, TranscriptMatchesCommittedGolden) {
  const std::string actual = transcript_for(1);
  ASSERT_FALSE(actual.empty());
  golden::expect_matches(actual, "console_transcript.txt");
}

}  // namespace
