/// @file json.hpp
/// @brief Minimal JSON value for the sickle-serve NDJSON protocol: parse
/// one request line, build one single-line response. Hand-rolled (no new
/// dependencies), covering exactly the JSON subset the protocol uses —
/// null, bool, finite numbers, strings with standard escapes, objects,
/// arrays. Insertion order of object keys is preserved so responses are
/// stable for tests and humans. Not a general-purpose library: numbers
/// are doubles (protocol ids stay well under 2^53) and dump() never
/// pretty-prints — NDJSON frames must stay on one line.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace sickle::serve {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double n) noexcept : type_(Type::kNumber), num_(n) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT

  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  /// Parse one complete JSON document; trailing non-space is an error.
  /// Throws RuntimeError with a position on malformed input, including
  /// arrays/objects nested more than 64 deep.
  [[nodiscard]] static Json parse(const std::string& text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept {
    return type_ == Type::kNull;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors: throw RuntimeError on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;  ///< array

  /// Object field by key; nullptr when absent (or not an object).
  [[nodiscard]] const Json* get(const std::string& key) const;

  /// Object field insert-or-replace (first-set order is kept on dump).
  Json& set(const std::string& key, Json value);
  /// Array append.
  Json& push(Json value);

  /// Single-line canonical serialization.
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> fields_;  ///< kObject
  std::vector<Json> items_;                           ///< kArray
};

}  // namespace sickle::serve
