// The one grammar behind every text field netsample reads: lease and serve
// wire lines, the SweepSpec / SessionSpec / NetFaultSpec codecs, journal
// lines, HOST:PORT and the CLI's numeric flags. docs/FORMATS.md, "Text
// fields", states it; in short:
//
//   unsigned   base-10 digits only, read whole by std::from_chars, at most
//              the field's maximum (no sign, space, hex, exponent, overflow)
//   real       one whole finite decimal token, as "%.17g" writes it
//   hexfloat   one whole token as "%a" writes it, inf and nan included
//   list       items split on one separator; an empty text has no items
//   key=value  a list of known keys, each at most once, mandatory ones
//              required
//
// Encoders write through the append_* helpers, so the writer and the reader
// of a field are the same grammar. Internal: not re-exported by
// netsample/netsample.h.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

namespace netsample::fields {

inline constexpr std::uint64_t kMaxUint =
    std::numeric_limits<std::uint64_t>::max();

/// An unsigned field: the whole of `text` is base-10 digits whose value is
/// at most `max`.
[[nodiscard]] bool parse_uint(std::string_view text, std::uint64_t* out,
                              std::uint64_t max = kMaxUint);

/// A real field: the whole of `text` is one finite decimal number.
[[nodiscard]] bool parse_real(std::string_view text, double* out);

/// A hexfloat field: the whole of `text` is what "%a" writes for some
/// double ("-0x1.8p+3", "0x0p+0", "inf", "-nan", ...).
[[nodiscard]] bool parse_hexfloat(std::string_view text, double* out);

/// A name token: 1 to `max_len` characters of [A-Za-z0-9._-], so it can
/// travel inside space-, comma- and semicolon-delimited lines.
[[nodiscard]] bool is_token(std::string_view text, std::size_t max_len);

/// Writers: integers in base 10, reals as "%.17g", hexfloats as "%a".
template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}
void append_real(std::string& out, double v);
void append_hexfloat(std::string& out, double v);

/// If *text starts with `literal`, drop it from *text and return true.
[[nodiscard]] bool consume(std::string_view* text, std::string_view literal);

/// Split *text at its first `sep`: *head gets what precedes it and *text
/// what follows it. With no `sep` in *text, *head gets all of it, *text
/// becomes empty, and the result is false.
bool cut(std::string_view* text, char sep, std::string_view* head);

/// Call item(view) for every `sep`-separated item of `list` in order,
/// stopping at the first false; returns whether every call returned true.
template <class Item>
[[nodiscard]] bool for_each_item(std::string_view list, char sep,
                                 Item&& item) {
  if (list.empty()) return true;
  std::string_view head;
  bool more = true;
  while (more) {
    more = cut(&list, sep, &head);
    if (!item(head)) return false;
  }
  return true;
}

/// Write `items` as a `sep`-separated list; write(item) appends one item.
template <class Range, class Write>
void append_list(std::string& out, char sep, const Range& items,
                 Write&& write) {
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    first = false;
    write(item);
  }
}

/// What a key=value list decode stopped on. `where` is the offending item
/// (kNotKeyValue: no '=', or an empty key or value; kBadValue: the value
/// reader refused it) or key (kUnknownKey, kDuplicateKey, kMissingKey).
struct KeyValueError {
  enum Kind { kNone, kEmptyItem, kNotKeyValue, kUnknownKey, kDuplicateKey,
              kMissingKey, kBadValue };
  Kind kind{kNone};
  std::string_view where;

  [[nodiscard]] bool ok() const { return kind == kNone; }
};

/// Decode a `sep`-separated key=value list against the schema `keys`: each
/// item splits at its first '='; value(i, text) reads the value of keys[i]
/// and returns false to refuse it. Bit i of `required` makes keys[i]
/// mandatory (at most 64 keys). Items are read in order, so the first bad
/// item is the one reported.
template <class Value>
[[nodiscard]] KeyValueError for_each_key_value(
    std::string_view list, char sep, std::span<const std::string_view> keys,
    std::uint64_t required, Value&& value) {
  KeyValueError err;
  const auto fail = [&err](KeyValueError::Kind kind, std::string_view where) {
    err = {kind, where};
    return false;
  };
  std::uint64_t seen = 0;
  const bool ok = for_each_item(list, sep, [&](std::string_view item) {
    std::string_view key;
    std::string_view text = item;
    if (item.empty()) return fail(KeyValueError::kEmptyItem, item);
    if (!cut(&text, '=', &key) || key.empty() || text.empty()) {
      return fail(KeyValueError::kNotKeyValue, item);
    }
    std::size_t i = 0;
    while (i < keys.size() && keys[i] != key) ++i;
    if (i == keys.size()) return fail(KeyValueError::kUnknownKey, key);
    if ((seen >> i) & 1u) return fail(KeyValueError::kDuplicateKey, key);
    seen |= std::uint64_t{1} << i;
    return value(i, text) || fail(KeyValueError::kBadValue, item);
  });
  for (std::size_t i = 0; ok && i < keys.size(); ++i) {
    if (((required & ~seen) >> i) & 1u) {
      return {KeyValueError::kMissingKey, keys[i]};
    }
  }
  return err;
}

}  // namespace netsample::fields
