// Operator console for the photonic tensor core serving simulator.
//
// Attaches an SCPI-style command interpreter to a live Server +
// Accelerator (the built-in multi-tenant demo scenario) and answers
// queries from its telemetry: latency percentiles, per-tenant cost
// attribution, SLO burn rates, per-core device state, trace dumps.
//
// Run it:
//   ./ptc_console                      interactive REPL (type HELP)
//   ./ptc_console --script ops.scpi    run a command script, echo + replies
//   ./ptc_console --socket /tmp/ptc    line-oriented AF_UNIX server
//   echo 'SNAP?' | ./ptc_console -     read commands from stdin (pipe mode)
//
// Exit status is the number of commands that failed (capped at 125), so a
// scripted session doubles as a check.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "console/console.hpp"
#include "console/demo.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

int capped(std::size_t errors) {
  return static_cast<int>(errors > 125 ? 125 : errors);
}

#ifndef _WIN32
/// Minimal line-oriented AF_UNIX server: one client at a time, each served
/// by Console::serve_connection.  `EXIT` closes the session and the
/// server.  socat readline UNIX-CONNECT:<path> makes a fine client.
int serve_socket(ptc::console::Console& console, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "socket path too long: " << path << "\n";
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listener, 1) < 0) {
    std::cerr << "bind/listen " << path << ": " << std::strerror(errno)
              << "\n";
    ::close(listener);
    return 1;
  }
  std::cout << "listening on " << path << " (connect: socat readline"
            << " UNIX-CONNECT:" << path << ")\n";

  std::size_t errors = 0;
  while (!console.exit_requested()) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) break;
    errors += console.serve_connection(client);
    ::close(client);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return capped(errors);
}
#endif

}  // namespace

int main(int argc, char** argv) {
  ptc::console::DemoScenario scenario;
  ptc::console::Console console = scenario.make_console();

  std::string script_path;
  std::string socket_path;
  bool pipe_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--script" && i + 1 < argc) {
      script_path = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "-") {
      pipe_mode = true;
    } else {
      std::cerr << "usage: ptc_console [--script <path> | --socket <path> |"
                << " -]\n";
      return 2;
    }
  }

  if (!script_path.empty()) {
    std::ifstream script(script_path);
    if (!script) {
      std::cerr << "cannot open script: " << script_path << "\n";
      return 2;
    }
    return capped(console.run_stream(script, std::cout, {.echo = true}));
  }
  if (!socket_path.empty()) {
#ifndef _WIN32
    return serve_socket(console, socket_path);
#else
    std::cerr << "--socket is not supported on this platform\n";
    return 2;
#endif
  }
  if (pipe_mode) {
    return capped(console.run_stream(std::cin, std::cout, {.echo = true}));
  }

  std::cout << "photonic tensor core operator console (HELP for commands,"
            << " EXIT to leave)\n";
  return capped(
      console.run_stream(std::cin, std::cout, {.prompt = true}));
}
