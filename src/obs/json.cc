#include "obs/json.h"

#include <cstdio>

namespace hoyan::obs {

void appendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  appendJsonEscaped(out, text);
  return out;
}

}  // namespace hoyan::obs
