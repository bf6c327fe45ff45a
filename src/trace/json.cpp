#include "trace/json.hpp"

#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace isex::trace {
namespace {

/// Appends `s` with `"`, `\` and every control character escaped — the one
/// escaping rule of every JSON string the program writes.  Other bytes,
/// UTF-8 included, pass through; unescaped runs are appended whole.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[c >> 4];
        out += "0123456789abcdef"[c & 0xf];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  string(name);
  out_ += ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view text) {
  raw("\"");
  append_escaped(out_, text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::fixed(double value, int digits) {
  char buf[360];  // any finite double: up to 309 integer digits
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, value, std::chars_format::fixed, digits);
  ISEX_ASSERT_MSG(r.ec == std::errc{}, "fixed() precision out of range");
  return raw({buf, r.ptr});
}

JsonWriter& JsonWriter::number(double value) {
  char buf[32];
  return raw({buf, std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::general, 6).ptr});
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  if (comma_) out_ += ',';  // a previous sibling's
  if (newline_) out_ += '\n';
  newline_ = false;
  out_ += json;
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::newline() {
  if (depth_ > 0) {
    newline_ = true;
  } else {
    out_ += '\n';
    comma_ = false;  // the next value starts a new document
  }
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  raw({&bracket, 1});
  ++depth_;
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  if (newline_) out_ += '\n';
  newline_ = false;
  out_ += bracket;
  --depth_;
  comma_ = true;
  return *this;
}

}  // namespace isex::trace
