#ifndef MUXWISE_TOOLS_MUXWISE_CLI_H_
#define MUXWISE_TOOLS_MUXWISE_CLI_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace muxwise::cli {

/**
 * The strict command line of one `muxwise` subcommand: `--name=VALUE`
 * options, bare `--name` switches and positional arguments. Each
 * accessor consumes the flag it names; Done() then rejects any flag no
 * accessor asked for. A numeric value must parse whole and be finite —
 * `--rss-ceiling-mb=abc` is an error naming the flag, never a silent 0.
 */
class FlagSet {
 public:
  FlagSet(std::string command, const std::vector<std::string>& args);

  /** Whether the switch `--name` was given. */
  bool Switch(const std::string& name);

  /** Value of `--name=VALUE`, or `fallback` when absent. */
  std::string String(const std::string& name, const std::string& fallback = "");

  /** Finite number value of `--name=VALUE`, or `fallback`. */
  double Number(const std::string& name, double fallback);

  /** Integer value of `--name=VALUE`, at least `min`, or `fallback`. */
  std::uint64_t Count(const std::string& name, std::uint64_t fallback,
                      std::uint64_t min = 0);

  const std::vector<std::string>& positional() const { return positional_; }

  /**
   * True when every flag was consumed, every value parsed and
   * [min, max] positional arguments were given. Otherwise prints the
   * first problem and `usage` to stderr and returns false; the command
   * then exits 2.
   */
  bool Done(std::size_t min_positional, std::size_t max_positional,
            const char* usage);

 private:
  struct Flag {
    std::string name;
    std::optional<std::string> value;  // Empty for the `--name` form.
    bool consumed = false;
  };

  /** The flag `--name`, marked consumed; nullptr when absent. */
  Flag* Take(const std::string& name);
  void Fail(const std::string& message);

  std::string command_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  std::string error_;
};

/** Reads the whole file at `path` into `out`; false if unreadable. */
bool ReadFile(const std::string& path, std::string& out);

/** The subcommands; each takes the arguments after its name and
 * returns the process exit status (0 ok, 1 a check failed, 2 usage or
 * input error). */
int RunCommand(const std::vector<std::string>& args);
int CheckCommand(const std::vector<std::string>& args);
int FuzzCommand(const std::vector<std::string>& args);
int BenchCommand(const std::vector<std::string>& args);
int TraceCommand(const std::vector<std::string>& args);

}  // namespace muxwise::cli

#endif  // MUXWISE_TOOLS_MUXWISE_CLI_H_
