#include "json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nvmenc::bench {

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return {buf, res.ptr};
}

const JsonValue* JsonValue::get(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = get(key);
  if (v == nullptr) throw std::runtime_error{"missing JSON key \"" + key + "\""};
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_{text} {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what};
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool literal(const char* word) {
    const std::string w{word};
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  JsonValue value() {
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        if (peek() != '"') fail("expected an object key");
        std::string key = string();
        expect(':');
        v.members.emplace_back(std::move(key), value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.items.push_back(value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.text = string();
      return v;
    }
    if (literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (literal("null")) return v;
    v.type = JsonValue::Type::kNumber;
    const char* begin = s_.data() + pos_;
    const auto res = std::from_chars(begin, s_.data() + s_.size(), v.number);
    if (res.ec != std::errc{} || res.ptr == begin) fail("expected a value");
    pos_ += static_cast<std::size_t>(res.ptr - begin);
    return v;
  }

  std::string string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            unsigned code = 0;
            const auto res = std::from_chars(s_.data() + pos_,
                                             s_.data() + pos_ + 4, code, 16);
            if (res.ec != std::errc{}) fail("bad \\u escape");
            pos_ += 4;
            // The benchmark only ever escapes control characters.
            if (code > 0x7f) fail("non-ASCII \\u escape");
            c = static_cast<char>(code);
            break;
          }
          default: c = e;
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser{text}.document();
}

JsonValue read_json_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return parse_json(buf.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

}  // namespace nvmenc::bench
