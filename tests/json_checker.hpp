// Minimal JSON syntax checker shared by the tests and the fuzz targets.
//
// A recursive-descent validator over RFC 8259's grammar: objects, arrays,
// strings with their escape rules (only \" \\ \/ \b \f \n \r \t and \uXXXX,
// no raw control character), numbers in JSON's form (no leading zero, no
// bare '.', no inf or nan), and the three literals.  Enough to prove that a
// writer emits well-formed documents without pulling in a JSON library.
// It checks syntax only; it builds no values.
#pragma once

#include <cctype>
#include <cstddef>
#include <string_view>

namespace isex::testing {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  /// True when the whole text is exactly one JSON value (surrounding
  /// whitespace allowed).
  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c < 0x20) return false;  // raw control character: must be escaped
      ++pos_;
      if (c != '\\') continue;
      switch (peek()) {
        case '"': case '\\': case '/': case 'b': case 'f': case 'n':
        case 'r': case 't':
          ++pos_;
          break;
        case 'u':
          ++pos_;
          for (int i = 0; i < 4; ++i, ++pos_)
            if (std::isxdigit(static_cast<unsigned char>(peek())) == 0)
              return false;
          break;
        default:
          return false;
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  /// One or more decimal digits.
  bool digits() {
    const std::size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace isex::testing
