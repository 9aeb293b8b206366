// JSON string escaping shared by every JSON emitter in the project: obs
// metrics and trace export, serve replies, bench reports.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace sickle {

/// Append `s` to `out` escaped for use between JSON double quotes (no
/// quotes added): `"` and `\` are backslash-escaped, \n \r \t use their
/// short escapes, other control bytes become \u00XX, and every other byte
/// (UTF-8 sequences included) is copied as is.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

/// `s` escaped for use between JSON double quotes (no quotes added).
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

}  // namespace sickle
