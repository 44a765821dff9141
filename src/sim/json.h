#ifndef MUXWISE_SIM_JSON_H_
#define MUXWISE_SIM_JSON_H_

#include <string>
#include <utility>
#include <vector>

namespace muxwise::json {

/**
 * Minimal JSON value model, recursive-descent parser and writer, shared
 * by every reader and writer of the repo's JSON documents (scenario
 * files, bench reports, run artifacts, chaos repros, lint reports,
 * Chrome trace export). It sits in the lowest band and depends on
 * nothing, so any layer or tool may link it. Scoped to what those
 * documents contain — objects, arrays, strings, doubles, bools, null —
 * deliberately not a general-purpose library.
 */
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /** Stable-order object representation (insertion order preserved). */
  std::vector<std::pair<std::string, Value>> object;

  /** Member lookup on an object value; nullptr when absent. */
  const Value* Find(const std::string& key) const;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
};

/** Parses one JSON document; false + `error` on malformed input. */
bool Parse(const std::string& text, Value& out, std::string& error);

/** Escapes `s` for embedding inside a JSON string literal. */
std::string Escape(const std::string& s);

/**
 * Serializes a value back to JSON text. Deterministic: object members
 * keep insertion order, integral numbers print without a decimal
 * point, and non-integral numbers use shortest-round-trip-safe %.17g —
 * so the same Value always yields byte-identical text (the property
 * chaos repros rely on). `indent` > 0 pretty-prints with that many
 * spaces per level; 0 emits one line.
 */
std::string Dump(const Value& v, int indent = 2);

// Builders for documents written by this repository's tools.
Value Num(double v);
Value Str(const std::string& s);
Value Bool(bool b);
Value Obj();
Value Arr(std::vector<Value> items = {});

/** Sets `key` on an object, replacing an existing member in place (so
 * its position is kept) or appending a new one. */
void SetKey(Value& object, const std::string& key, Value value);

// Tolerant typed accessors: `v` may be nullptr or of another type, in
// which case the fallback is returned — absent optional fields read as
// their defaults without per-site null checks.
double GetNumber(const Value* v, double fallback = 0.0);
std::string GetString(const Value* v, const std::string& fallback = "");
bool GetBool(const Value* v, bool fallback = false);

}  // namespace muxwise::json

#endif  // MUXWISE_SIM_JSON_H_
