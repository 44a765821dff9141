#ifndef MUXWISE_SIM_JSON_H_
#define MUXWISE_SIM_JSON_H_

#include <cstdint>
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

/**
 * The largest integer a number reads back exactly: above it, neighbouring
 * integers share a double (2^53 + 1 reads as 2^53).
 */
inline constexpr std::int64_t kMaxExactInteger = (std::int64_t{1} << 53) - 1;

/**
 * Strict field reader for documents people write (scenario files).
 * Every read returns false after recording a path-qualified error, so a
 * malformed document names its own defect instead of silently running
 * something else: an unknown key, a missing required one, or a value of
 * the wrong type. `path` names the object being read ("trace.mix[0]");
 * the root object's path is "". An absent optional key leaves `*out`
 * untouched, so callers pre-load their defaults.
 */
class FieldReader {
 public:
  /** Records "`path`: `what`" as the error; always returns false. */
  bool Fail(const std::string& path, const std::string& what);

  /** Rejects any key of `object` outside `allowed`. */
  bool CheckKeys(const Value& object, const std::string& path,
                 const std::vector<std::string>& allowed);

  /** Rejects `v` unless it is a present object. */
  bool RequireObject(const Value* v, const std::string& path);

  bool GetDouble(const Value& object, const std::string& path,
                 const std::string& key, bool required, double* out);
  /**
   * A number with no fractional part and a magnitude of at most
   * kMaxExactInteger; a larger literal may already have been rounded to
   * its neighbour.
   */
  bool GetInteger(const Value& object, const std::string& path,
                  const std::string& key, bool required, std::int64_t* out);
  /** GetInteger, rejecting a value an `int` cannot hold as out of range. */
  bool GetInteger(const Value& object, const std::string& path,
                  const std::string& key, bool required, int* out);
  bool GetBool(const Value& object, const std::string& path,
               const std::string& key, bool required, bool* out);
  bool GetString(const Value& object, const std::string& path,
                 const std::string& key, bool required, std::string* out);

  const std::string& error() const { return error_; }

 private:
  /** Reads `key` into `*out` from the `member` of a value of `type`. */
  template <typename T>
  bool Get(const Value& object, const std::string& path,
           const std::string& key, bool required, Value::Type type,
           const char* expected, T Value::*member, T* out);

  std::string error_;
};

}  // namespace muxwise::json

#endif  // MUXWISE_SIM_JSON_H_
