// JsonWriter — the one writer of every JSON document the program emits
// (docs/OBSERVABILITY.md lists them and their formats).  It appends compact
// JSON to a caller's string, places every comma, escapes keys and strings
// by json_escape's rule and formats numbers with std::to_chars.  newline()
// puts a line break before the next token, after its comma; at the top
// level it ends a document, so one writer renders a JSONL file.  Keys
// written outside any object are an object's members (a fragment).  There
// is no style setting, and nesting is not checked.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace isex::trace {

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// An object member's key; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& string(std::string_view text);
  JsonWriter& boolean(bool value) { return raw(value ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& integer(T value) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof buf, value).ptr});
  }
  /// As printf's %.<digits>f.
  JsonWriter& fixed(double value, int digits);
  /// As printf's %g, which is also ostream's default.
  JsonWriter& number(double value);
  /// Already-rendered JSON, comma-separated like a value, appended as is.
  JsonWriter& raw(std::string_view json);
  JsonWriter& newline();

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string& out_;
  int depth_ = 0;
  bool comma_ = false;    ///< the next key or value is a sibling's
  bool newline_ = false;  ///< a line break goes before the next token
};

}  // namespace isex::trace
