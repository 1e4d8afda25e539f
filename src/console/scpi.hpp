#ifndef PTC_CONSOLE_SCPI_HPP
#define PTC_CONSOLE_SCPI_HPP

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

/// SCPI-flavored command grammar for the operator console: colon-separated
/// mnemonic hierarchies with short/long forms (`MEASure` answers to both
/// `MEAS` and `MEASURE`), case-insensitive matching, `?` marking queries,
/// and whitespace/comma-separated arguments — the lab-instrument idiom
/// operators already know, pointed at a simulated accelerator fleet.
namespace ptc::console {

/// One parsed command line.  `mnemonics` are the raw colon-separated
/// header tokens (case preserved for error echo), `query` is the trailing
/// `?`, `args` everything after the header.
struct ScpiCommand {
  std::vector<std::string> mnemonics;
  bool query = false;
  std::vector<std::string> args;

  bool empty() const { return mnemonics.empty(); }
};

/// Parses one line.  Comments (`;` or `#` to end of line) and surrounding
/// whitespace are stripped; a blank/comment-only line parses to an empty
/// command.  Returns false (with `error` set) on a malformed header.
bool parse_scpi(const std::string& line, ScpiCommand* command,
                std::string* error);

/// True when `token` matches the mnemonic `spec` case-insensitively, where
/// spec spells the short form in capitals and the optional tail in
/// lowercase: spec "MEASure" accepts MEAS, MEASU, ..., MEASURE — any
/// prefix of the long form that covers at least the short form.
bool mnemonic_matches(std::string_view token, std::string_view spec);

/// Matches `token` against an indexed mnemonic (`CORE<n>`): the leading
/// alphabetic part must match `spec` (short/long rules as above) and the
/// decimal suffix parses into `index`.  `CORE2` -> true, index 2; a suffix
/// too large for size_t does not match.
bool mnemonic_index(const std::string& token, const std::string& spec,
                    std::size_t* index);

/// ASCII uppercase copy.
std::string scpi_upper(const std::string& s);

}  // namespace ptc::console

#endif  // PTC_CONSOLE_SCPI_HPP
