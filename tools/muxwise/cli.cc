#include "muxwise/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

namespace muxwise::cli {

FlagSet::FlagSet(std::string command, const std::vector<std::string>& args)
    : command_(std::move(command)) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    Flag flag;
    flag.name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (eq != std::string::npos) flag.value = arg.substr(eq + 1);
    flags_.push_back(std::move(flag));
  }
}

FlagSet::Flag* FlagSet::Take(const std::string& name) {
  Flag* found = nullptr;
  for (Flag& flag : flags_) {
    if (flag.name != name) continue;
    flag.consumed = true;
    found = &flag;  // The last occurrence wins.
  }
  return found;
}

void FlagSet::Fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

bool FlagSet::Switch(const std::string& name) {
  const Flag* flag = Take(name);
  if (flag != nullptr && flag->value.has_value()) {
    Fail("--" + name + " takes no value");
  }
  return flag != nullptr;
}

std::string FlagSet::String(const std::string& name,
                            const std::string& fallback) {
  const Flag* flag = Take(name);
  if (flag == nullptr) return fallback;
  if (!flag->value.has_value() || flag->value->empty()) {
    Fail("--" + name + " needs a value (--" + name + "=VALUE)");
    return fallback;
  }
  return *flag->value;
}

double FlagSet::Number(const std::string& name, double fallback) {
  const std::string text = String(name);
  if (text.empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    Fail("--" + name + ": '" + text + "' is not a finite number");
    return fallback;
  }
  return value;
}

std::uint64_t FlagSet::Count(const std::string& name, std::uint64_t fallback,
                             std::uint64_t min) {
  const std::string text = String(name);
  if (text.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text[0] < '0' || text[0] > '9' || end != text.c_str() + text.size() ||
      errno == ERANGE || value < min) {
    Fail("--" + name + ": '" + text + "' is not an integer >= " +
         std::to_string(min));
    return fallback;
  }
  return value;
}

bool FlagSet::Done(std::size_t min_positional, std::size_t max_positional,
                   const char* usage) {
  for (const Flag& flag : flags_) {
    if (!flag.consumed) Fail("unknown flag --" + flag.name);
  }
  if (positional_.size() < min_positional ||
      positional_.size() > max_positional) {
    Fail("wrong number of arguments");
  }
  if (error_.empty()) return true;
  std::fprintf(stderr, "muxwise %s: %s\nusage: %s\n", command_.c_str(),
               error_.c_str(), usage);
  return false;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

}  // namespace muxwise::cli
