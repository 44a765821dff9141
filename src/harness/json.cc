#include "harness/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace muxwise::harness::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(Value& out, std::string& error) {
    if (!ParseValue(out)) {
      error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      error = "trailing content after JSON document";
      return false;
    }
    return true;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseValue(Value& out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.type = Value::Type::kString;
      return ParseString(out.string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.type = Value::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.type = Value::Type::kBool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.type = Value::Type::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(Value& out) {
    out.type = Value::Type::kObject;
    if (!Consume('{')) return false;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(key)) return false;
      if (!Consume(':')) return false;
      Value value;
      if (!ParseValue(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(Value& out) {
    out.type = Value::Type::kArray;
    if (!Consume('[')) return false;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string& out) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
            // Our writers only emit \u00xx control escapes; decode the
            // low byte and drop the (always-zero) high byte.
            const std::string hex = text_.substr(pos_ + 2, 2);
            out.push_back(static_cast<char>(
                std::strtol(hex.c_str(), nullptr, 16)));
            pos_ += 4;
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      out.push_back(c);
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Value& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    out.type = Value::Type::kNumber;
    out.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                             nullptr);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const Value* Value::Find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Parse(const std::string& text, Value& out, std::string& error) {
  return Parser(text).Parse(out, error);
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

std::string DumpNumber(double number) {
  // Integral values print without a decimal point (scenario files are
  // written by hand with "30", not "30.0" — round-tripping should not
  // reformat them); everything else round-trips through %.17g.
  const auto integral = static_cast<long long>(number);
  if (static_cast<double>(integral) == number && number > -1e15 &&
      number < 1e15) {
    return std::to_string(integral);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", number);
  return buf;
}

void DumpTo(const Value& v, int indent, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (v.type) {
    case Value::Type::kNull:
      out += "null";
      return;
    case Value::Type::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case Value::Type::kNumber:
      out += DumpNumber(v.number);
      return;
    case Value::Type::kString:
      out += '"';
      out += Escape(v.string);
      out += '"';
      return;
    case Value::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += pad;
        DumpTo(v.array[i], indent, depth + 1, out);
        if (i + 1 < v.array.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      return;
    }
    case Value::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += pad;
        out += '"';
        out += Escape(v.object[i].first);
        out += "\": ";
        DumpTo(v.object[i].second, indent, depth + 1, out);
        if (i + 1 < v.object.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string Dump(const Value& v, int indent) {
  std::string out;
  DumpTo(v, indent, 0, out);
  return out;
}

Value Num(double v) {
  Value out;
  out.type = Value::Type::kNumber;
  out.number = v;
  return out;
}

Value Str(const std::string& s) {
  Value out;
  out.type = Value::Type::kString;
  out.string = s;
  return out;
}

Value Bool(bool b) {
  Value out;
  out.type = Value::Type::kBool;
  out.boolean = b;
  return out;
}

Value Obj() {
  Value out;
  out.type = Value::Type::kObject;
  return out;
}

Value Arr() {
  Value out;
  out.type = Value::Type::kArray;
  return out;
}

void SetKey(Value& object, const std::string& key, Value value) {
  for (auto& [k, v] : object.object) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object.object.emplace_back(key, std::move(value));
}

double GetNumber(const Value* v, double fallback) {
  return v != nullptr && v->type == Value::Type::kNumber ? v->number
                                                         : fallback;
}

std::string GetString(const Value* v, const std::string& fallback) {
  return v != nullptr && v->type == Value::Type::kString ? v->string
                                                         : fallback;
}

bool GetBool(const Value* v, bool fallback) {
  return v != nullptr && v->type == Value::Type::kBool ? v->boolean
                                                       : fallback;
}

}  // namespace muxwise::harness::json
