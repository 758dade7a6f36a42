// The benchmark's JSON output: a string escaper that covers every control
// character, and numbers printed with all their digits.
#pragma once

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

namespace verdictbench {

// Appends `text` as a quoted JSON string. Bytes >= 0x20 other than '"' and
// '\\' pass through (UTF-8 stays UTF-8); every byte below 0x20 is escaped.
inline void appendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline std::string jsonString(std::string_view text) {
  std::string out;
  appendJsonString(out, text);
  return out;
}

// A JSON number with round-trip precision. JSON has no NaN or infinity, so a
// non-finite value is a bug in whoever computed it.
inline std::string jsonNumber(double value) {
  if (!std::isfinite(value)) throw std::domain_error("non-finite value in JSON output");
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace verdictbench
