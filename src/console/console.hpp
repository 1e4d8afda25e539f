#ifndef PTC_CONSOLE_CONSOLE_HPP
#define PTC_CONSOLE_CONSOLE_HPP

#include <deque>
#include <functional>
#include <iosfwd>
#include <string>

#include "console/scpi.hpp"
#include "runtime/accelerator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/token_server.hpp"

/// Operator console: a queryable control plane over a live Server +
/// Accelerator.  One SCPI-style command line in, one reply out — answered
/// from the last run's ServeReport, the live metrics registry, and the
/// fleet's device state, never from host wall time, so a scripted session
/// against a deterministic scenario produces a byte-identical transcript
/// (the CI golden-transcript check relies on this).
///
/// The same interpreter serves all three front-ends: the interactive REPL,
/// script files, and the line-oriented socket mode of tools/ptc_console.
namespace ptc::console {

/// Front-end knobs for Console::run_stream.
struct StreamOptions {
  bool prompt = false;  ///< print "ptc> " before each read (interactive)
  bool echo = false;    ///< echo "> <line>" before each reply (transcripts)
};

class Console {
 public:
  /// Attaches to a serving stack.  The console reads the server's
  /// attached metrics registry and tracer (Server::metrics / tracer), so
  /// attach those before issuing queries that need them.
  Console(serve::Server& server, serve::ModelRegistry& registry,
          runtime::Accelerator& accelerator);

  /// `SERVE:RUN?` re-runs the scenario through this callback and stores
  /// the report it returns.  Without one, SERVE:RUN? is an error.
  void set_run_callback(std::function<serve::ServeReport()> callback);

  /// `TOKen:RUN?` runs the scenario's token-serving (transformer) leg and
  /// stores the report; its tenants then answer TEN:LIST? / TEN:COST? and
  /// SNAP? grows a token-serving summary.  Without one, TOK:RUN? errors.
  void set_token_run_callback(
      std::function<serve::TokenServeReport()> callback);

  /// SYSTem:ERRor? holds at most this many entries.  An error that finds
  /// the queue full replaces the newest entry with -350,"Queue overflow",
  /// as SCPI instruments do, so no client can grow the queue without bound.
  static constexpr std::size_t kErrorQueueCapacity = 32;

  /// Evaluates one command line and returns the reply ("" for a blank or
  /// comment-only line; "ERR: ..." on failure, which also queues the
  /// message for SYSTem:ERRor? as one SCPI string, embedded quotes
  /// doubled).  Replies are single lines except the METRics /
  /// MODEL:SCHEDule dumps.
  std::string eval(const std::string& line);

  /// True once EXIT/QUIT has been evaluated.
  bool exit_requested() const { return exit_requested_; }

  /// Reads command lines from `in` until EOF or EXIT, writing replies to
  /// `out`.  Returns the number of commands that replied "ERR: ...".
  std::size_t run_stream(std::istream& in, std::ostream& out,
                         const StreamOptions& options = {});

  /// Serves one connected stream socket (POSIX): one reply per command
  /// line, multi-line replies ending with a blank line so clients can
  /// frame them, until the peer closes, a reply cannot be sent, or EXIT.
  /// A line longer than 64 KiB draws one "ERR: ..." reply and is
  /// discarded through its newline.  The peer may disconnect at any time;
  /// that ends only this session.  Does not close `fd`.  Returns the
  /// number of commands that replied "ERR: ...".
  std::size_t serve_connection(int fd);

 private:
  std::string dispatch(const ScpiCommand& command);
  std::string error(const std::string& message);

  std::string cmd_idn() const;
  std::string cmd_snapshot() const;
  std::string cmd_serve_run();
  std::string cmd_token_run();
  std::string cmd_measure(const ScpiCommand& command);
  std::string cmd_fleet(const ScpiCommand& command);
  std::string cmd_tenant(const ScpiCommand& command);
  std::string cmd_slo(const ScpiCommand& command);
  std::string cmd_core_health(std::size_t core);
  std::string cmd_health(const ScpiCommand& command);
  std::string cmd_alerts() const;
  std::string cmd_fault(const ScpiCommand& command);
  std::string cmd_recalibrate();
  std::string cmd_trace(const ScpiCommand& command);
  std::string cmd_metrics(const ScpiCommand& command);
  std::string cmd_model(const ScpiCommand& command);
  std::string cmd_help() const;

  /// The tenant's row in the last SERVE:RUN? report, else in the last
  /// TOK:RUN? one (`*token` set); nullptr for an unknown tenant.
  const serve::TenantCost* find_tenant(const std::string& tenant,
                                       bool* token = nullptr) const;

  serve::Server& server_;
  serve::ModelRegistry& registry_;
  runtime::Accelerator& accelerator_;
  std::function<serve::ServeReport()> run_callback_;
  std::function<serve::TokenServeReport()> token_run_callback_;
  serve::ServeReport report_;
  serve::TokenServeReport token_report_;
  std::deque<std::string> errors_;
  bool exit_requested_ = false;
};

}  // namespace ptc::console

#endif  // PTC_CONSOLE_CONSOLE_HPP
