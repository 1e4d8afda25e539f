#include "console/scpi.hpp"

#include <cctype>
#include <charconv>

namespace ptc::console {
namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Header characters: mnemonic letters/digits, `:` separators, `*` common
/// commands, `_` inside mnemonics.
bool is_header_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == ':' ||
         c == '*' || c == '_';
}

}  // namespace

std::string scpi_upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool mnemonic_matches(const std::string& token, const std::string& spec) {
  // Split the spec into its short form (capitals) and full long form.
  std::string short_form;
  std::string long_form;
  for (const char c : spec) {
    const char upper =
        static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (std::isupper(static_cast<unsigned char>(c)) != 0 || c == '*') {
      short_form.push_back(upper);
    }
    long_form.push_back(upper);
  }
  const std::string t = scpi_upper(token);
  if (t.size() < short_form.size() || t.size() > long_form.size()) {
    return false;
  }
  return long_form.compare(0, t.size(), t) == 0;
}

bool mnemonic_index(const std::string& token, const std::string& spec,
                    std::size_t* index) {
  std::size_t digits = token.size();
  while (digits > 0 &&
         std::isdigit(static_cast<unsigned char>(token[digits - 1])) != 0) {
    --digits;
  }
  if (digits == token.size()) return false;  // no numeric suffix
  if (!mnemonic_matches(token.substr(0, digits), spec)) return false;
  // from_chars refuses a suffix past size_t's range instead of wrapping it.
  const char* end = token.data() + token.size();
  return std::from_chars(token.data() + digits, end, *index).ec == std::errc{};
}

bool parse_scpi(const std::string& line, ScpiCommand* command,
                std::string* error) {
  *command = ScpiCommand{};
  // Strip comments, then surrounding whitespace.
  std::string text = line;
  const std::size_t comment = text.find_first_of(";#");
  if (comment != std::string::npos) text.resize(comment);
  std::size_t begin = 0;
  while (begin < text.size() && is_space(text[begin])) ++begin;
  std::size_t end = text.size();
  while (end > begin && is_space(text[end - 1])) --end;
  text = text.substr(begin, end - begin);
  if (text.empty()) return true;

  // Header runs to the first whitespace; a trailing '?' marks a query.
  std::size_t header_end = 0;
  while (header_end < text.size() && !is_space(text[header_end])) {
    ++header_end;
  }
  std::string header = text.substr(0, header_end);
  if (!header.empty() && header.back() == '?') {
    command->query = true;
    header.pop_back();
  }
  if (header.empty()) {
    *error = "empty command header";
    return false;
  }
  for (const char c : header) {
    if (!is_header_char(c)) {
      *error = std::string("bad character '") + c + "' in command header";
      return false;
    }
  }
  std::size_t token_begin = 0;
  for (std::size_t i = 0; i <= header.size(); ++i) {
    if (i == header.size() || header[i] == ':') {
      if (i == token_begin) {
        *error = "empty mnemonic in command header";
        return false;
      }
      command->mnemonics.push_back(header.substr(token_begin, i - token_begin));
      token_begin = i + 1;
    }
  }

  // Arguments: whitespace- or comma-separated tokens after the header.
  std::size_t i = header_end;
  while (i < text.size()) {
    while (i < text.size() && (is_space(text[i]) || text[i] == ',')) ++i;
    std::size_t start = i;
    while (i < text.size() && !is_space(text[i]) && text[i] != ',') ++i;
    if (i > start) command->args.push_back(text.substr(start, i - start));
  }
  return true;
}

}  // namespace ptc::console
