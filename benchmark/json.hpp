// The little JSON the benchmark needs: quoting and shortest round-trip
// numbers for its writers, and a strict recursive-descent reader for
// `--compare` (result files) and the bounds in BENCHMARK.json.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace nvmenc::bench {

[[nodiscard]] std::string json_quote(const std::string& text);
/// Shortest text that reads back as exactly `value`; "null" when the value
/// is not finite (JSON has no NaN or infinity).
[[nodiscard]] std::string json_number(double value);

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Member `key` of an object, or nullptr.
  [[nodiscard]] const JsonValue* get(const std::string& key) const;
  /// Member `key`, which must exist; throws naming the key otherwise.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
};

/// Parses one JSON document; throws std::runtime_error naming the byte
/// offset of the first defect.
[[nodiscard]] JsonValue parse_json(const std::string& text);
/// Reads and parses a file; errors name the file.
[[nodiscard]] JsonValue read_json_file(const std::string& path);

}  // namespace nvmenc::bench
