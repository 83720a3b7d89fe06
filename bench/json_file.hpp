// The one JSON writer of bench/: the results/BENCH_*.json documents that
// paper_claims writes under --json=<dir>. It owns the quoting, the number
// format (%.10g, locale-independent), the separators and the layout, and
// the open and write errors; a section only names members and values.
//
// Layout: the document's members, and those of an object under it, go one
// per line; an object inside an array is one line (a row), and an array of
// objects puts each on a line of its own; an array of scalars stays on one
// line.
#pragma once

#include <concepts>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

// The stamp bench/CMakeLists.txt generates on every build, ahead of the
// defaults in provenance.hpp.
#include "provenance_stamp.hpp"

#include "provenance.hpp"

namespace nvmenc::bench {

class JsonFile {
 public:
  /// Opens `<dir>/BENCH_<bench>.json` and writes its "bench" key and its
  /// provenance line (provenance.hpp). Throws naming the path when the
  /// file cannot be opened.
  JsonFile(const std::string& dir, const std::string& bench, u64 seed)
      : path_{dir + "/BENCH_" + bench + ".json"}, os_{path_} {
    if (!os_) throw std::runtime_error{"cannot write " + path_};
    // provenance_json ends in its own ",\n"; the separator is ours to write.
    std::string provenance = provenance_json(seed);
    provenance.erase(provenance.find_last_not_of(",\n") + 1);
    os_ << "{\n  \"bench\": " << quote(bench) << ",\n" << provenance;
    levels_.push_back({.array = false, .row = false, .count = 2,
                       .broken = true});
  }

  /// `"key": value` in the open object.
  template <typename T>
  JsonFile& field(std::string_view key, const T& value) {
    begin(key, false);
    os_ << scalar(value);
    return *this;
  }
  /// A value in the open array.
  template <typename T>
  JsonFile& item(const T& value) {
    return field({}, value);
  }
  /// Opens an object: member `key` of the open object, or with no key an
  /// element of the open array.
  JsonFile& object(std::string_view key = {}) {
    const bool row = levels_.back().array || levels_.back().row;
    begin(key, true);
    os_ << '{';
    levels_.push_back({.array = false, .row = row});
    return *this;
  }
  /// Opens an array, member `key` of the open object.
  JsonFile& array(std::string_view key) {
    begin(key, true);
    os_ << '[';
    levels_.push_back({.array = true, .row = true});
    return *this;
  }
  /// Closes the innermost open object or array.
  JsonFile& end() {
    const Level done = levels_.back();
    levels_.pop_back();
    if (done.broken) os_ << '\n' << indent();
    os_ << (done.array ? ']' : '}');
    return *this;
  }
  /// Closes the document and reports it; throws naming the path when
  /// writing failed.
  void close() {
    if (levels_.size() != 1) {
      throw std::logic_error{"unbalanced JSON in " + path_};
    }
    end();
    os_ << '\n';
    os_.close();
    if (!os_) throw std::runtime_error{"failed writing " + path_};
    std::cout << "[json] " << path_ << "\n";
  }

 private:
  struct Level {
    bool array = false;
    bool row = false;     ///< members share one line
    usize count = 0;      ///< members or elements so far
    bool broken = false;  ///< some member went on a line of its own
  };

  [[nodiscard]] std::string indent() const {
    return std::string(2 * levels_.size(), ' ');
  }

  /// The separator and key before a member or element; a container in an
  /// array, or any member of an object that is not a row, starts a line.
  void begin(std::string_view key, bool container) {
    Level& at = levels_.back();
    if (at.count++ > 0) os_ << ',';
    if (!at.row || (at.array && container)) {
      at.broken = true;
      os_ << '\n' << indent();
    } else if (at.count > 1) {
      os_ << ' ';
    }
    if (!key.empty()) os_ << quote(key) << ": ";
  }

  template <typename T>
  static std::string scalar(const T& value) {
    if constexpr (std::floating_point<T>) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", value);
      return buf;
    } else if constexpr (std::integral<T>) {
      return std::to_string(value);
    } else {
      return quote(value);
    }
  }

  static std::string quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out += c;
      }
    }
    return out + '"';
  }

  std::string path_;
  std::ofstream os_;
  std::vector<Level> levels_;
};

}  // namespace nvmenc::bench
