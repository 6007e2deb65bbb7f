#include "support/json.hpp"

#include <cstdio>

#include "support/assert.hpp"

namespace rts::support {

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void JsonWriter::separate() {
  if (comma_ && depth_ > 0) out_ += ',';
  comma_ = true;
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  ++depth_;
  comma_ = false;
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  RTS_ASSERT_MSG(depth_ > 0, "unbalanced JSON container");
  --depth_;
  comma_ = true;
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name).raw(":");
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out_ += '\\';
    if (c == '\n') {
      out_ += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x",
                    static_cast<unsigned>(c));
      out_ += escaped;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

}  // namespace rts::support
