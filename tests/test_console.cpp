// Operator console tests: the SCPI grammar, the command surface against a
// live serving stack, and the CI golden-transcript contract — the committed
// demo script replayed at several host thread counts must produce output
// byte-identical to tests/golden/console_transcript.txt.  On divergence the
// test writes console_transcript.txt.actual next to the golden for diffing.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "console/console.hpp"
#include "console/demo.hpp"
#include "console/scpi.hpp"

namespace {

using namespace ptc;
using console::Console;
using console::DemoScenario;
using console::ScpiCommand;
using console::StreamOptions;

std::string tests_dir() {
  const std::string self = __FILE__;
  return self.substr(0, self.find_last_of('/'));
}

std::string golden_transcript_path() {
  return tests_dir() + "/golden/console_transcript.txt";
}

std::string demo_script_path() {
  // The script CI runs through tools/ptc_console — the test replays the
  // committed file, not a copy, so tool and test can never drift apart.
  const std::string self = tests_dir();
  return self.substr(0, self.find_last_of('/')) + "/tools/console_demo.scpi";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

TEST(Console, RecalibrateActsOnTheLiveFleet) {
  DemoScenario demo(1);
  Console console = demo.make_console();
  console.eval("SERVE:RUN?");  // drift the fleet
  const std::string reply = console.eval("RECAL");
  EXPECT_EQ(reply.rfind("OK", 0), 0u) << reply;
  // A fresh re-lock pins every heater back on resonance.
  EXPECT_EQ(console.eval("FLEET:DETUN?"), "0");
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

// --- golden transcript ------------------------------------------------------

std::string transcript_for(std::size_t threads) {
  DemoScenario demo(threads);
  Console console = demo.make_console();
  std::istringstream in(read_file(demo_script_path()));
  std::ostringstream out;
  StreamOptions options;
  options.echo = true;  // matches ptc_console --script
  const std::size_t errors = console.run_stream(in, out, options);
  EXPECT_EQ(errors, 0u) << "demo script raised console errors";
  return out.str();
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
  const std::string golden = read_file(golden_transcript_path());
  if (actual != golden) {
    const std::string actual_path =
        golden_transcript_path() + ".actual";  // next to the golden
    std::ofstream(actual_path) << actual;
    FAIL() << "console transcript diverged from "
              "tests/golden/console_transcript.txt; wrote "
           << actual_path
           << " — review the diff, then copy it over the golden file if the "
              "change is intended";
  }
}

}  // namespace
