#ifndef PTC_TESTS_GOLDEN_HPP
#define PTC_TESTS_GOLDEN_HPP

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

/// Byte-for-byte golden files under tests/golden/, shared by every suite
/// that pins an output.  On a mismatch the observed output is written next
/// to the golden as <name>.actual for diffing; copy it over the golden once
/// the change is reviewed and intended.
namespace ptc::golden {

/// The source tree's tests/ directory.
inline std::string tests_dir() {
  const std::string self = __FILE__;
  return self.substr(0, self.find_last_of('/'));
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `actual` byte for byte with tests/golden/<name>.
inline void expect_matches(const std::string& actual, const std::string& name) {
  const std::string path = tests_dir() + "/golden/" + name;
  if (actual == read_file(path)) return;
  std::ofstream(path + ".actual") << actual;
  ADD_FAILURE() << "output diverged from tests/golden/" << name << "; wrote "
                << path << ".actual — review the diff, then copy it over the "
                << "golden file if the change is intended";
}

}  // namespace ptc::golden

#endif  // PTC_TESTS_GOLDEN_HPP
