// The one JSON writer: every JSON byte the program emits (campaign jsonl,
// BENCH_*.json, trace and corpus manifests, soak reports, CHECKPOINT.json)
// is appended to a std::string through it.
//
// Containers place their own commas; keys and string values are always
// escaped; integers print exactly, doubles as %.10g.  raw() appends text
// verbatim for hand-laid frames (line breaks between jsonl documents, the
// corpus manifest's indentation) and never places a comma.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace rts::support {

/// Deterministic shortest-ish double rendering for machine output.  %.10g is
/// stable across runs of the same binary (the only determinism the JSON
/// byte-identity guarantee needs) and keeps integral values integral.
std::string fmt_double(double value);

/// Zero-padded 16-digit lower-case hex, the spelling of spec hashes.
std::string hex64(std::uint64_t value);

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& end_array() { return close(']'); }
  /// `"name":`; the next value or container is its value.
  JsonWriter& key(std::string_view name);

  /// A string literal: quotes and backslashes escaped, newlines as \n,
  /// every other byte below 0x20 as \u00XX.
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag) { return scalar(flag ? "true" : "false"); }
  JsonWriter& value(double number) { return scalar(fmt_double(number)); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T number) {
    char buffer[24];
    return scalar({buffer, std::to_chars(buffer, buffer + 24, number).ptr});
  }

  /// Key/value members in order: field("n", n, "k", k, ...).
  template <typename T, typename... More>
  JsonWriter& field(std::string_view name, const T& v, const More&... more) {
    key(name).value(v);
    if constexpr (sizeof...(more) > 0) field(more...);
    return *this;
  }
  JsonWriter& object(std::string_view name) { return key(name).open('{'); }
  JsonWriter& array(std::string_view name) { return key(name).open('['); }

  /// Appends `text` as is: no comma, no escaping.
  JsonWriter& raw(std::string_view text) { out_ += text; return *this; }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// A value already spelled as JSON (number or literal).
  JsonWriter& scalar(std::string_view text) { separate(); return raw(text); }
  /// The comma before a member or element that is not its container's
  /// first; nothing right after a key or at the top level.
  void separate();

  std::string out_;
  int depth_ = 0;       ///< open containers
  bool comma_ = false;  ///< the next member or element needs a comma
};

}  // namespace rts::support
