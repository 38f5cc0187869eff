// Whole-string number parsing for values that come from outside the
// process: command-line flags and dump-file fields. A value that does not
// parse whole ("abc", "12x", "5%", "") is an error that names where it
// came from, never a silent default.
#pragma once

#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>

namespace setint::util {

// The whole of `value` as a T, or std::runtime_error naming `what`.
template <typename T>
T parse_number(const std::string& what, std::string_view value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc() || ptr != end) {
    throw std::runtime_error("bad value for " + what + ": '" +
                             std::string(value) + "'");
  }
  return out;
}

}  // namespace setint::util
