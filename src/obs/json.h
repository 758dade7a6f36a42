// JSON string escaping shared by every JSON writer in the tree (journal,
// trace, metrics, status server, provenance, reports, benches): quotes,
// backslashes and every control byte (U+0000..U+001F), so the output is
// always valid JSON.
#pragma once

#include <string>
#include <string_view>

namespace hoyan::obs {

// Appends `text` to `out` with JSON string escapes applied (no quotes added).
void appendJsonEscaped(std::string& out, std::string_view text);

// `text` with JSON string escapes applied (no quotes added).
std::string jsonEscape(std::string_view text);

}  // namespace hoyan::obs
