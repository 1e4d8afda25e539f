#include "console/scpi.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace ptc::console {
namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Header characters: mnemonic ASCII letters/digits, `:` separators, `*`
/// common commands, `_` inside mnemonics.
bool is_header_char(char c) {
  return (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
         (c >= 'a' && c <= 'z') || c == ':' || c == '*' || c == '_';
}

}  // namespace

std::string scpi_upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool mnemonic_matches(std::string_view token, std::string_view spec) {
  // Lengths first: a token longer than the long form (or shorter than the
  // capitals of the short form) fails before any character is read.
  if (token.size() > spec.size()) return false;
  std::size_t short_size = 0;
  for (const char c : spec) {
    if (std::isupper(static_cast<unsigned char>(c)) != 0 || c == '*') {
      ++short_size;
    }
  }
  if (token.size() < short_size) return false;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(token[i])) !=
        std::toupper(static_cast<unsigned char>(spec[i]))) {
      return false;
    }
  }
  return true;
}

bool mnemonic_index(const std::string& token, const std::string& spec,
                    std::size_t* index) {
  std::size_t digits = token.size();
  while (digits > 0 &&
         std::isdigit(static_cast<unsigned char>(token[digits - 1])) != 0) {
    --digits;
  }
  if (digits == token.size()) return false;  // no numeric suffix
  if (!mnemonic_matches(std::string_view(token).substr(0, digits), spec)) {
    return false;
  }
  // from_chars refuses a suffix past size_t's range instead of wrapping it.
  const char* end = token.data() + token.size();
  return std::from_chars(token.data() + digits, end, *index).ec == std::errc{};
}

bool parse_scpi(const std::string& line, ScpiCommand* command,
                std::string* error) {
  *command = ScpiCommand{};
  // Strip comments, then surrounding whitespace: views of the line, so
  // only the mnemonics and arguments below are copied, once each.
  std::string_view text = line;
  const auto comment = std::find_if(text.begin(), text.end(), [](char c) {
    return c == ';' || c == '#';
  });
  text = text.substr(0, static_cast<std::size_t>(comment - text.begin()));
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  if (text.empty()) return true;

  // Header runs to the first whitespace; a trailing '?' marks a query.
  std::size_t header_end = 0;
  while (header_end < text.size() && !is_space(text[header_end])) {
    ++header_end;
  }
  std::string_view header = text.substr(0, header_end);
  if (header.back() == '?') {
    command->query = true;
    header.remove_suffix(1);
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
      command->mnemonics.emplace_back(
          header.substr(token_begin, i - token_begin));
      token_begin = i + 1;
    }
  }

  // Arguments: whitespace- or comma-separated tokens after the header.
  std::size_t i = header_end;
  while (i < text.size()) {
    while (i < text.size() && (is_space(text[i]) || text[i] == ',')) ++i;
    std::size_t start = i;
    while (i < text.size() && !is_space(text[i]) && text[i] != ',') ++i;
    if (i > start) command->args.emplace_back(text.substr(start, i - start));
  }
  return true;
}

}  // namespace ptc::console
