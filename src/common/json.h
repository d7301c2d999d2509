#ifndef CULINARYLAB_COMMON_JSON_H_
#define CULINARYLAB_COMMON_JSON_H_

// The one JSON writer: wire answers, admin lines and the metrics, SLO and
// trace exports append their strings and numbers through these two
// functions into a caller-owned std::string. Header-only and standard
// library only, so culinary_obs, which sits below culinary_common, can
// include it without a link dependency.

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

namespace culinary::json {

/// Appends `text` escaped for the inside of a JSON string (the caller
/// writes the quotes): `"` and `\` get a backslash, newline, tab and
/// carriage return become `\n`, `\t` and `\r`, and every other byte below
/// 0x20 becomes `\u00xx`. All other bytes, UTF-8 included, pass through.
inline void AppendEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += "0123456789abcdef"[byte >> 4];
      out += "0123456789abcdef"[byte & 0xF];
    } else {
      out += c;
    }
  }
}

/// Appends `value` as a JSON number. An integer prints exactly. A double
/// prints with 17 significant digits, the bytes of printf's "%.17g": it
/// reads back to the same bits, so bit-identical results print identical
/// lines. JSON has no non-finite numbers, so ±inf and NaN print as the
/// strings "inf", "-inf" and "nan".
template <typename T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
inline void AppendNumber(std::string& out, T value) {
  char buf[32];
  std::to_chars_result printed{};
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      out += std::isnan(value) ? "\"nan\"" : value > 0 ? "\"inf\"" : "\"-inf\"";
      return;
    }
    printed = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17);
  } else {
    printed = std::to_chars(buf, buf + sizeof(buf), value);
  }
  out.append(buf, printed.ptr);
}

}  // namespace culinary::json

#endif  // CULINARYLAB_COMMON_JSON_H_
