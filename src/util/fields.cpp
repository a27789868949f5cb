#include "util/fields.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace netsample::fields {

bool parse_uint(std::string_view text, std::uint64_t* out, std::uint64_t max) {
  const char* const end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto res = std::from_chars(text.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end || v > max) return false;
  *out = v;
  return true;
}

bool parse_real(std::string_view text, double* out) {
  const char* const end = text.data() + text.size();
  double v = 0;
  const auto res =
      std::from_chars(text.data(), end, v, std::chars_format::general);
  if (res.ec != std::errc() || res.ptr != end || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_hexfloat(std::string_view text, double* out) {
  const bool negative = consume(&text, "-");
  double v = 0;
  if (text == "inf") {
    v = std::numeric_limits<double>::infinity();
  } else if (text == "nan") {
    v = std::numeric_limits<double>::quiet_NaN();
  } else {
    // from_chars(hex) takes the digits after the "0x" that %a writes; its
    // own sign and inf/nan spellings must not sneak in behind the prefix.
    if (!consume(&text, "0x") || text.empty() ||
        std::isxdigit(static_cast<unsigned char>(text.front())) == 0) {
      return false;
    }
    const char* const end = text.data() + text.size();
    const auto res =
        std::from_chars(text.data(), end, v, std::chars_format::hex);
    if (res.ec != std::errc() || res.ptr != end) return false;
  }
  *out = negative ? -v : v;
  return true;
}

bool is_token(std::string_view text, std::size_t max_len) {
  if (text.empty() || text.size() > max_len) return false;
  for (const char c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void append_real(std::string& out, double v) {
  char buf[64];
  out.append(buf, static_cast<std::size_t>(
                      std::snprintf(buf, sizeof buf, "%.17g", v)));
}

void append_hexfloat(std::string& out, double v) {
  char buf[64];
  out.append(buf, static_cast<std::size_t>(
                      std::snprintf(buf, sizeof buf, "%a", v)));
}

bool consume(std::string_view* text, std::string_view literal) {
  if (!text->starts_with(literal)) return false;
  text->remove_prefix(literal.size());
  return true;
}

bool cut(std::string_view* text, char sep, std::string_view* head) {
  const std::size_t at = text->find(sep);
  if (at == std::string_view::npos) {
    *head = *text;
    *text = {};
    return false;
  }
  *head = text->substr(0, at);
  text->remove_prefix(at + 1);
  return true;
}

}  // namespace netsample::fields
