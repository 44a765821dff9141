#include "muxlint/muxlint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "sim/json.h"

namespace muxwise::muxlint {

namespace {

/** A line-scoped rule: a regex matched against comment-stripped code. */
struct LineRule {
  std::string name;
  std::string summary;
  std::regex pattern;
  // Substring of the path that exempts a file from the rule (the one
  // place the pattern is legitimate), empty when none.
  std::string exempt_path;
  // When non-empty the rule only applies to paths containing one of
  // these substrings — for conventions local to one layer.
  std::vector<std::string> apply_paths;
};

const std::vector<LineRule>& LineRules() {
  static const std::vector<LineRule>* rules = new std::vector<LineRule>{
      {"wall-clock",
       "wall-clock time breaks bit-reproducibility; use "
       "sim::Simulator::Now() / sim::Time",
       std::regex(R"(std::chrono|\b(time|gettimeofday|clock_gettime|ctime|gmtime|localtime)\s*\()"),
       ""},
      {"raw-rand",
       "raw/global randomness is unseeded or platform-dependent; draw "
       "from a named sim::Rng stream",
       std::regex(R"(\b(rand|srand|rand_r|drand48)\s*\(|std::random_device|std::mt19937|std::minstd_rand|std::default_random_engine)"),
       "sim/rng"},
      {"ptr-key-container",
       "pointer-keyed unordered container iterates in address order, "
       "which differs across runs; key by a stable id or use an ordered "
       "container",
       std::regex(R"(unordered_map\s*<\s*[^,<>]*\*[^,<>]*,|unordered_set\s*<\s*[^<>]*\*[^<>]*>)"),
       ""},
      {"float-sim-time",
       "simulated time must use sim::Time / sim::Duration (integer "
       "nanoseconds), not floating point",
       std::regex(R"(\b(double|float)\s+[A-Za-z_]\w*(_ns|_time|_when|_deadline)\b|\b(double|float)\s+(when|deadline)\b)"),
       ""},
      {"bare-assert",
       "use MUX_CHECK (always-on, reports through sim::Panic) instead "
       "of assert()",
       std::regex(R"((^|[^\w])assert\s*\()"), ""},
      // HostThread::Submit and Channel::Transfer/Send completions cannot
      // be cancelled, so in fault-capable engine layers a lambda that
      // captures raw `this` without also capturing the crash epoch will
      // fire against post-crash state. Heuristic: the capture list must
      // sit on the call's line (multi-line captures escape the rule).
      {"dangling-callback",
       "completion callback captures raw `this` with no epoch guard; a "
       "crash cannot revoke it — capture `e = epoch()` and bail when "
       "stale",
       std::regex(
           R"(\b(Submit|Transfer|Send)\s*(<[^<>;]*>)?\s*\(.*\[(?=[^\]]*\bthis\b)(?![^\]]*epoch)[^\]]*\])"),
       "",
       {"src/baselines", "src/core"}},
      // The observability layer exports traces that must be
      // byte-identical across runs; a wall-clock timestamp anywhere in
      // it (even in tooling that only formats events) silently breaks
      // that without perturbing the simulation. Stricter than the
      // repo-wide wall-clock rule: clock *names* are findings, not just
      // calls.
      {"trace-wall-clock",
       "trace events and trace tooling must stamp sim::Time only; any "
       "wall-clock source makes exported traces non-reproducible",
       std::regex(
           R"(\b(system_clock|steady_clock|high_resolution_clock|file_clock|utc_clock)\b|\b(strftime|mktime|timegm|clock)\s*\(|\bstruct\s+(timespec|timeval)\b|\bCLOCK_[A-Z_]+\b|__rdtsc)"),
       "",
       {"src/obs", "tools/muxwise/trace.cc"}},
      // The event queue is a sorted lane beside a binary heap, both
      // over a pooled arena with monotonic tie-break ids (FIFO within a
      // tick). A std::priority_queue — almost always instantiated with a
      // lambda comparator — reintroduces the comparator-call-heavy slow
      // path and loses the documented same-tick ordering contract.
      {"priority-queue",
       "std::priority_queue (lambda-comparator event queues) is banned "
       "in the simulation substrate; schedule through sim::Simulator's "
       "pooled event queue, which guarantees FIFO same-tick ordering",
       std::regex(R"(std::priority_queue\b)"),
       "",
       {"src/sim", "src/gpu"}},
      // Overload control (ISSUE 5) makes every request queue in the
      // serving path bounded: admission enforces a hard per-class queue
      // bound before anything reaches an engine queue. A bare push into
      // a queue-named member reintroduces an unbounded buffer that
      // defeats that back-pressure. Sites whose boundedness is enforced
      // elsewhere (admission-checked entry points, net-zero requeues,
      // same-event drains) carry `// muxlint: allow(unbounded-queue)`
      // with a justification.
      {"unbounded-queue",
       "push into a queue-named member without an admission bound; "
       "overload control requires every serving-path queue to be "
       "bounded — justify with an allow() if boundedness is enforced "
       "elsewhere",
       std::regex(
           R"(\b[a-z]*(waiting|queue|pending|held|gated|backlog)[a-z_]*_(\s*\[[^\]]*\])?\s*\.\s*(push_back|push_front|emplace_back|emplace_front)\s*\()"),
       "",
       {"src/serve", "src/core"}},
      // The metrics layer (ISSUE 9) replaced full-sample percentile
      // vectors with fixed-footprint quantile sketches so million-
      // request runs hold O(1) metric memory. A push into a latency- or
      // sample-named vector reintroduces per-request accumulation that
      // grows with the request count; record into a
      // serve::QuantileSketch instead, or allow() a buffer whose bound
      // is enforced elsewhere (per-replica stats, fixed subsamples).
      {"unbounded-samples",
       "per-request sample accumulation in a latency/sample-named "
       "vector; metric memory must stay O(1) at streaming scale — "
       "record into a serve::QuantileSketch, or allow() a buffer whose "
       "bound is enforced elsewhere",
       std::regex(
           R"(\b[a-z_]*(latenc|sampl|ttft|tbt|e2e|delay|_ms)[a-z_]*(\s*\[[^\]]*\])?\s*\.\s*(push_back|emplace_back)\s*\()"),
       "",
       {"src/serve", "src/route"}},
      // Event records live in the Simulator's arena/free-list so ids
      // recycle deterministically and steady-state scheduling never
      // allocates; heap-allocating them directly bypasses both.
      {"event-arena",
       "sim event objects must come from the Simulator's pooled arena; "
       "direct new/delete or make_unique/make_shared of Event records "
       "bypasses the free list",
       std::regex(
           R"(\bnew\s+(sim::)?(Simulator::)?Event\b|\bdelete\s+[^;=]*[Ee]vent\b|\bmake_(unique|shared)\s*<\s*(sim::)?(Simulator::)?Event\b)"),
       "",
       {"src/sim", "src/gpu"}},
  };
  return *rules;
}

// --- Layering: the declared dependency DAG over src/ modules. ---
//
// A module may include same-band or lower-band modules; an include
// whose target sits in a HIGHER band is a back-edge finding. The bands
// were measured from the real include graph and then frozen, so the
// rule documents the architecture and stops regressions:
//
//   band 0: check, sim          (substrate: invariants + event loop)
//   band 1: obs                 (tracing over the substrate)
//   band 2: gpu, kv, llm, workload   (device, memory, model, traffic)
//   band 3: serve, overload     (serving abstractions + admission)
//   band 4: fault               (injection drives engines via serve)
//   band 5: baselines, core     (engines; core consumes overload)
//   band 6: route               (fleet router over replica engines)
//   band 7: harness             (scenario runner over everything)
//
// Note the refinement over the coarse sketch "core/serve < overload":
// overload is a *library* the MuxWise engine consumes (admission
// gates, spill policy), so it sits BELOW core, not above it.
const std::map<std::string, int>& LayerBands() {
  static const std::map<std::string, int>* bands = new std::map<std::string, int>{
      {"check", 0}, {"sim", 0},
      {"obs", 1},
      {"gpu", 2},   {"kv", 2}, {"llm", 2}, {"workload", 2},
      {"serve", 3}, {"overload", 3},
      {"fault", 4},
      {"baselines", 5}, {"core", 5},
      {"route", 6},
      {"harness", 7},
  };
  return *bands;
}

/** The src/ module a path belongs to, or "" when not under src/. */
std::string SrcModule(const std::string& path) {
  std::size_t pos = path.rfind("/src/");
  std::size_t start;
  if (pos != std::string::npos) {
    start = pos + 5;
  } else if (path.rfind("src/", 0) == 0) {
    start = 4;
  } else {
    return "";
  }
  const std::size_t slash = path.find('/', start);
  if (slash == std::string::npos) return "";
  return path.substr(start, slash - start);
}

bool IsHeader(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

/**
 * Rule names named by a `// muxlint: allow(a, b)` pragma in `comment`.
 * The pragma must sit at the START of the comment (leading whitespace
 * aside) — that is how every real suppression is written, and it keeps
 * prose that merely *mentions* the pragma syntax mid-sentence (such as
 * this very comment) from being parsed as a suppression.
 */
std::vector<std::string> ParseAllowances(const std::string& comment) {
  std::vector<std::string> allowed;
  static const std::regex kAllow(R"(^\s*muxlint:\s*allow\(([^)]*)\))");
  std::smatch match;
  if (std::regex_search(comment, match, kAllow)) {
    std::stringstream ss(match[1].str());
    std::string name;
    while (std::getline(ss, name, ',')) {
      name.erase(0, name.find_first_not_of(" \t"));
      name.erase(name.find_last_not_of(" \t") + 1);
      if (!name.empty()) allowed.push_back(name);
    }
  }
  return allowed;
}

bool Allows(const std::vector<std::string>& allowed, const std::string& rule) {
  return std::find(allowed.begin(), allowed.end(), rule) != allowed.end() ||
         std::find(allowed.begin(), allowed.end(), "all") != allowed.end();
}

/**
 * Splits one line into its live-code portion (string/char literal
 * bodies blanked, comments removed — what rule regexes see) and its
 * comment portion (what allow() pragma parsing sees; pragma-shaped
 * text inside a string literal must stay inert). `in_block_comment`
 * carries the block-comment state across lines.
 */
void SplitLine(const std::string& line, bool& in_block_comment,
               std::string& code, std::string& comment) {
  code.clear();
  comment.clear();
  code.reserve(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (in_block_comment) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block_comment = false;
        ++i;
      } else {
        comment.push_back(line[i]);
      }
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      comment.append(line.substr(i + 2));
      break;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      code.push_back(quote);
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == quote) break;
        code.push_back(' ');  // Keep columns, hide content.
        ++i;
      }
      if (i < line.size()) code.push_back(quote);
      continue;
    }
    code.push_back(c);
  }
}

std::string Trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/**
 * Checks the file-scoped include-guard convention: a header's first two
 * code lines are `#ifndef MUXWISE_...` / `#define MUXWISE_...` and its
 * last code line is `#endif`. Returns the problem ("" when compliant).
 */
std::string IncludeGuardProblem(const std::vector<std::string>& code_lines,
                                std::string& excerpt) {
  std::vector<std::string> code;
  for (const std::string& line : code_lines) {
    const std::string trimmed = Trim(line);
    if (!trimmed.empty()) code.push_back(trimmed);
  }
  excerpt = code.empty() ? "" : code.front();
  if (code.size() < 3) return "header has no include guard";
  if (code[0].rfind("#ifndef MUXWISE_", 0) != 0) {
    return "header must open with a MUXWISE_-prefixed include guard";
  }
  if (code[1].rfind("#define MUXWISE_", 0) != 0) {
    return "#ifndef guard is not followed by its #define";
  }
  if (code.back().rfind("#endif", 0) != 0) {
    return "include guard is never closed by a trailing #endif";
  }
  return "";
}

// --- Symbol-table-lite: mutable namespace-scope state detection. ---

const std::regex& GlobalDeclPattern() {
  // TYPE [template-args] [&*] NAME [= init | {init}] ;  on one line.
  static const std::regex* pattern = new std::regex(
      R"(^\s*(?:(?:static|inline|thread_local)\s+)*[A-Za-z_][\w:]*(?:\s*<[^;]*>)?(?:\s*[&*])*\s+([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;\s*$)");
  return *pattern;
}

bool LooksLikeMutableGlobal(const std::string& code) {
  static const std::regex* kExclude = new std::regex(
      R"(\b(const|constexpr|constinit|consteval|using|typedef|extern|template|friend|operator|return|namespace|class|struct|enum|union|static_assert)\b)");
  if (std::regex_search(code, *kExclude)) return false;
  const std::string trimmed = Trim(code);
  if (trimmed.empty() || trimmed[0] == '#') return false;
  return std::regex_match(code, GlobalDeclPattern());
}

// --- Shard-safety: instance-key collection over function regions. ---
//
// `MUX_SHARD_LOCAL` / `MUX_CHANNEL_ENTRY` (src/sim/channel.h) mark the
// blessed surface: a channel-entry function may touch many instances
// (it IS the crossing); everything else must stay on one shard, with
// cross-instance interaction riding sim::Channel. The pass tracks
// every function region in src/core and src/baselines, collects the
// distinct instance expressions it touches — `instance(<arg>)` keyed
// by the normalised argument, plus one synthetic key per
// `AddInstance(...)` call — and flags regions reaching two or more keys
// without a MUX_CHANNEL_ENTRY annotation.

struct FunctionRegion {
  int start_line = 0;            // 1-based line of the opening brace.
  std::size_t open_depth = 0;    // Scope-stack depth before the brace.
  bool channel_entry = false;
  bool shard_local = false;
  std::set<std::string> instance_keys;
  int synthetic = 0;             // AddInstance() counter.
};

void CollectInstanceKeys(const std::string& code, FunctionRegion& region) {
  static const std::regex* kInstance =
      new std::regex(R"(\binstance\s*\(\s*([^()]*?)\s*\))");
  auto begin = std::sregex_iterator(code.begin(), code.end(), *kInstance);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string key = (*it)[1].str();
    key.erase(std::remove_if(key.begin(), key.end(),
                             [](char c) { return c == ' ' || c == '\t'; }),
              key.end());
    region.instance_keys.insert(key);
  }
  static const std::regex* kAdd = new std::regex(R"(\bAddInstance\s*\()");
  auto abegin = std::sregex_iterator(code.begin(), code.end(), *kAdd);
  for (auto it = abegin; it != std::sregex_iterator(); ++it) {
    region.instance_keys.insert("added#" + std::to_string(region.synthetic++));
  }
}

bool InAnyScope(const std::string& path,
                const std::vector<std::string>& scopes) {
  return std::any_of(scopes.begin(), scopes.end(),
                     [&path](const std::string& scope) {
                       return path.find(scope) != std::string::npos;
                     });
}

/** Strips everything before the last repo anchor so baselines written
 * from absolute ctest paths still read repo-relative. */
std::string RepoRelative(const std::string& path) {
  for (const char* anchor : {"/src/", "/tools/", "/tests/", "/bench/"}) {
    const std::size_t pos = path.rfind(anchor);
    if (pos != std::string::npos) return path.substr(pos + 1);
  }
  return path;
}

}  // namespace

std::vector<RuleInfo> Rules() {
  std::vector<RuleInfo> rules;
  for (const LineRule& rule : LineRules()) {
    rules.push_back(RuleInfo{rule.name, rule.summary, "line"});
  }
  rules.push_back(RuleInfo{
      "include-guard",
      "headers open with #ifndef MUXWISE_... / #define and close with "
      "#endif",
      "file"});
  rules.push_back(RuleInfo{
      "stale-allow",
      "a muxlint: allow() pragma that suppresses nothing on its line is "
      "dead and hides future regressions; remove it or fix the rule name",
      "file"});
  rules.push_back(RuleInfo{
      "layering",
      "an #include crossing the declared module DAG backwards (lower "
      "band including a higher band) inverts the architecture; see "
      "DESIGN.md for the band assignment",
      "project"});
  rules.push_back(RuleInfo{
      "mutable-global",
      "mutable namespace-scope state is shared across runs in one "
      "process and breaks run isolation; scope it to an object or make "
      "it constexpr",
      "project"});
  rules.push_back(RuleInfo{
      "shard-safety",
      "a function touching multiple distinct GPU instances outside a "
      "MUX_CHANNEL_ENTRY point couples instances directly; route the "
      "interaction through sim::Channel",
      "project"});
  return rules;
}

void LintContent(const std::string& path, const std::string& content,
                 LintReport& report) {
  ++report.files_scanned;

  std::vector<std::string> raw_lines;
  {
    std::stringstream ss(content);
    std::string line;
    while (std::getline(ss, line)) raw_lines.push_back(line);
  }

  const std::size_t n = raw_lines.size();
  std::vector<std::string> code_lines(n);
  std::vector<std::vector<std::string>> allowances(n);
  std::vector<std::set<std::string>> used(n);

  // An allowance is "used" when it silenced a finding on its line; the
  // wildcard `all` is credited as "all". Unused allowances become
  // stale-allow findings at the end of the scan.
  auto emit = [&](std::size_t line_idx, const std::string& rule,
                  const std::string& message, const std::string& excerpt) {
    const std::vector<std::string>& allowed = allowances[line_idx];
    if (Allows(allowed, rule)) {
      ++report.suppressed;
      ++report.suppressed_by_rule[rule];
      if (std::find(allowed.begin(), allowed.end(), rule) != allowed.end()) {
        used[line_idx].insert(rule);
      } else {
        used[line_idx].insert("all");
      }
      return;
    }
    report.findings.push_back(Finding{path, static_cast<int>(line_idx) + 1,
                                      rule, message, excerpt});
  };

  // Pass 1: split lines, collect allowances.
  int guard_allow_line = -1;
  {
    bool in_block_comment = false;
    std::string comment;
    for (std::size_t i = 0; i < n; ++i) {
      SplitLine(raw_lines[i], in_block_comment, code_lines[i], comment);
      allowances[i] = ParseAllowances(comment);
      if (guard_allow_line < 0 && Allows(allowances[i], "include-guard")) {
        guard_allow_line = static_cast<int>(i);
      }
    }
  }

  // Pass 2: line rules + layering over the code portions.
  const std::string module = SrcModule(path);
  const auto& bands = LayerBands();
  const auto band_it = bands.find(module);
  const int file_band = band_it != bands.end() ? band_it->second : -1;
  static const std::regex kInclude(R"(^\s*#\s*include\s*"([^"]+)\")");

  for (std::size_t i = 0; i < n; ++i) {
    const std::string& code = code_lines[i];
    for (const LineRule& rule : LineRules()) {
      if (!rule.exempt_path.empty() &&
          path.find(rule.exempt_path) != std::string::npos) {
        continue;
      }
      if (!rule.apply_paths.empty() && !InAnyScope(path, rule.apply_paths)) {
        continue;
      }
      if (!std::regex_search(code, rule.pattern)) continue;
      emit(i, rule.name, rule.summary, Trim(raw_lines[i]));
    }

    if (file_band >= 0) {
      // Qualify via the code portion (so a commented-out include stays
      // inert) but read the target from the raw line — SplitLine blanks
      // string-literal bodies, which is exactly where the path lives.
      std::smatch m;
      if (!Trim(code).empty() && Trim(code)[0] == '#' &&
          std::regex_search(raw_lines[i], m, kInclude)) {
        const std::string target = m[1].str();
        const std::size_t slash = target.find('/');
        if (slash != std::string::npos) {
          const auto it = bands.find(target.substr(0, slash));
          if (it != bands.end() && it->second > file_band) {
            emit(i, "layering",
                 "back-edge: " + module + " (band " +
                     std::to_string(file_band) + ") must not include " +
                     it->first + " (band " + std::to_string(it->second) +
                     "); the dependency DAG only points downward",
                 Trim(raw_lines[i]));
          }
        }
      }
    }
  }

  // Pass 3: scope tracking for mutable-global and shard-safety.
  //
  // The scope stack classifies each brace as namespace ('n'), class
  // ('c'), or block ('b' — function bodies, control flow, lambdas,
  // brace initialisers). Classification reads the code accumulated
  // since the last `{`, `}`, or `;`. Preprocessor lines are skipped —
  // they never open scopes here and #if arms would unbalance the
  // count.
  const bool check_globals = file_band >= 0;
  const bool check_shards = InAnyScope(path, {"src/core", "src/baselines"});
  if (check_globals || check_shards) {
    static const std::regex kNamespace(R"(\bnamespace\b)");
    static const std::regex kClassLike(R"(\b(class|struct|union|enum)\b)");
    std::vector<char> scopes;
    std::string pending;
    std::vector<FunctionRegion> regions;  // Innermost last.

    auto at_namespace_scope = [&scopes] {
      return std::all_of(scopes.begin(), scopes.end(),
                         [](char s) { return s == 'n'; });
    };
    auto at_type_scope = [&scopes] {
      return std::all_of(scopes.begin(), scopes.end(),
                         [](char s) { return s == 'n' || s == 'c'; });
    };

    for (std::size_t i = 0; i < n; ++i) {
      const std::string& code = code_lines[i];
      const std::string trimmed = Trim(code);
      if (!trimmed.empty() && trimmed[0] == '#') continue;

      // Only a line that STARTS a statement can be a one-line variable
      // declaration; a non-empty pending accumulator means this line
      // continues a multi-line signature (e.g. a defaulted parameter
      // `int seed = 2024);`), which the declaration regex must not see.
      if (check_globals && at_namespace_scope() && !scopes.empty() &&
          Trim(pending).empty() && LooksLikeMutableGlobal(code)) {
        emit(i, "mutable-global",
             "mutable namespace-scope state in module '" + module +
                 "': shared across runs; scope it to an owning object "
                 "or make it constexpr",
             Trim(raw_lines[i]));
      }

      if (check_shards && !regions.empty()) {
        CollectInstanceKeys(code, regions.back());
      }

      for (char c : code) {
        if (c == '{') {
          char kind = 'b';
          if (std::regex_search(pending, kNamespace)) {
            kind = 'n';
          } else if (std::regex_search(pending, kClassLike)) {
            kind = 'c';
          }
          if (check_shards && kind == 'b' && at_type_scope()) {
            FunctionRegion region;
            region.start_line = static_cast<int>(i) + 1;
            region.open_depth = scopes.size();
            region.channel_entry =
                pending.find("MUX_CHANNEL_ENTRY") != std::string::npos;
            region.shard_local =
                pending.find("MUX_SHARD_LOCAL") != std::string::npos;
            regions.push_back(region);
          }
          scopes.push_back(kind);
          pending.clear();
        } else if (c == '}') {
          if (!scopes.empty()) scopes.pop_back();
          pending.clear();
          if (!regions.empty() && scopes.size() <= regions.back().open_depth) {
            const FunctionRegion region = regions.back();
            regions.pop_back();
            const std::size_t keys = region.instance_keys.size();
            const std::size_t line_idx =
                static_cast<std::size_t>(region.start_line) - 1;
            if (region.shard_local && keys > 1) {
              emit(line_idx, "shard-safety",
                   "function declared MUX_SHARD_LOCAL touches " +
                       std::to_string(keys) +
                       " distinct GPU instances; a shard-local function "
                       "must stay on one",
                   Trim(raw_lines[line_idx]));
            } else if (!region.channel_entry && !region.shard_local &&
                       keys > 1) {
              emit(line_idx, "shard-safety",
                   "function touches " + std::to_string(keys) +
                       " distinct GPU instances without MUX_CHANNEL_ENTRY; "
                       "cross-instance interaction must ride a channel "
                       "(or annotate the blessed entry point)",
                   Trim(raw_lines[line_idx]));
            }
          }
        } else if (c == ';') {
          pending.clear();
        } else {
          pending.push_back(c);
        }
      }
      pending.push_back(' ');  // Line break separates tokens.
    }
  }

  // File-scoped include-guard check.
  if (IsHeader(path)) {
    std::string excerpt;
    const std::string problem = IncludeGuardProblem(code_lines, excerpt);
    if (!problem.empty()) {
      if (guard_allow_line >= 0) {
        ++report.suppressed;
        ++report.suppressed_by_rule["include-guard"];
        used[guard_allow_line].insert("include-guard");
      } else {
        report.findings.push_back(
            Finding{path, 1, "include-guard", problem, excerpt});
      }
    }
  }

  // Pass 4: stale-allow — every pragma name that silenced nothing. The
  // finding is deliberately NOT suppressible via allow(all): the stale
  // wildcard would otherwise silence its own audit. Only an explicit
  // allow(stale-allow) quiets it.
  auto emit_stale = [&](std::size_t line_idx, const std::string& message) {
    const std::vector<std::string>& allowed = allowances[line_idx];
    if (std::find(allowed.begin(), allowed.end(), "stale-allow") !=
        allowed.end()) {
      ++report.suppressed;
      ++report.suppressed_by_rule["stale-allow"];
      return;
    }
    report.findings.push_back(Finding{path, static_cast<int>(line_idx) + 1,
                                      "stale-allow", message,
                                      Trim(raw_lines[line_idx])});
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& name : allowances[i]) {
      if (name == "stale-allow") continue;  // Meta-suppression, never stale.
      if (used[i].count(name)) continue;
      if (name == "all" && !used[i].empty()) continue;
      emit_stale(i, "allow(" + name +
                        ") suppresses nothing on this line; remove the "
                        "stale pragma (or fix its rule name) so real "
                        "regressions are not silenced later");
    }
  }
}

bool LintFile(const std::string& path, LintReport& report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    report.errors.push_back(path + ": unreadable");
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  LintContent(path, buffer.str(), report);
  return true;
}

bool LintTree(const std::vector<std::string>& roots, LintReport& report) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  bool ok = true;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      report.errors.push_back(root + ": not a file or directory");
      ok = false;
      continue;
    }
    fs::recursive_directory_iterator it(root, ec);
    if (ec) {
      report.errors.push_back(root + ": " + ec.message());
      ok = false;
      continue;
    }
    const fs::recursive_directory_iterator end;
    while (it != end) {
      const fs::path entry = it->path();
      std::error_code type_ec;
      if (it->is_directory(type_ec)) {
        // Generated trees are never lint subjects: build/ holds copies
        // of headers (duplicate findings) and .git/ holds packfiles.
        const std::string name = entry.filename().string();
        if (name == "build" || name == ".git") {
          it.disable_recursion_pending();
        }
      } else if (!type_ec && it->is_regular_file(type_ec)) {
        const std::string p = entry.string();
        if (p.ends_with(".h") || p.ends_with(".hpp") || p.ends_with(".cc") ||
            p.ends_with(".cpp")) {
          files.push_back(p);
        }
      }
      if (type_ec) {
        report.errors.push_back(entry.string() + ": " + type_ec.message());
        ok = false;
      }
      // The increment itself can fail (permission loss, racing
      // deletion); the pre-fix code never checked this and silently
      // reported a partial scan as complete.
      it.increment(ec);
      if (ec) {
        report.errors.push_back(root + ": traversal stopped: " +
                                ec.message());
        ok = false;
        break;
      }
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& file : files) {
    if (!LintFile(file, report)) ok = false;
  }
  return ok;
}

bool LoadBaseline(const std::string& path, std::vector<BaselineEntry>& entries,
                  std::vector<std::string>& errors) {
  std::ifstream in(path);
  if (!in) {
    errors.push_back(path + ": baseline unreadable");
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const std::size_t space = trimmed.find(' ');
    if (space == std::string::npos) {
      errors.push_back(path + ": malformed baseline line: " + trimmed);
      continue;
    }
    entries.push_back(BaselineEntry{trimmed.substr(0, space),
                                    Trim(trimmed.substr(space + 1))});
  }
  return true;
}

void ApplyBaseline(const std::vector<BaselineEntry>& entries,
                   LintReport& report) {
  auto matches = [&entries](const Finding& f) {
    return std::any_of(entries.begin(), entries.end(),
                       [&f](const BaselineEntry& e) {
                         return e.rule == f.rule && f.file.ends_with(e.path);
                       });
  };
  const auto mid = std::stable_partition(
      report.findings.begin(), report.findings.end(),
      [&matches](const Finding& f) { return !matches(f); });
  report.baselined += static_cast<std::size_t>(
      std::distance(mid, report.findings.end()));
  report.findings.erase(mid, report.findings.end());
}

std::string FormatBaseline(const LintReport& report) {
  std::set<std::string> lines;
  for (const Finding& f : report.findings) {
    lines.insert(f.rule + " " + RepoRelative(f.file));
  }
  std::ostringstream out;
  out << "# muxlint baseline: grandfathered findings, one `rule path` per\n"
         "# line (path is a suffix match). Regenerate with\n"
         "#   muxlint --write-baseline=tools/muxlint/baseline.txt src tests\n"
         "# Shrink it when you fix a finding; never grow it silently.\n";
  for (const std::string& line : lines) out << line << "\n";
  return out.str();
}

std::string FormatText(const LintReport& report) {
  std::ostringstream out;
  for (const Finding& f : report.findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n    " << f.excerpt << "\n";
  }
  for (const std::string& error : report.errors) {
    out << "muxlint: error: " << error << "\n";
  }
  out << "muxlint: " << report.findings.size() << " finding(s), "
      << report.suppressed << " suppressed, " << report.baselined
      << " baselined, " << report.files_scanned << " file(s) scanned";
  if (!report.errors.empty()) {
    out << ", " << report.errors.size() << " error(s)";
  }
  out << "\n";
  return out.str();
}

std::string FormatJson(const LintReport& report) {
  json::Value findings = json::Arr();
  for (const Finding& f : report.findings) {
    json::Value entry = json::Obj();
    json::SetKey(entry, "file", json::Str(f.file));
    json::SetKey(entry, "line", json::Num(f.line));
    json::SetKey(entry, "rule", json::Str(f.rule));
    json::SetKey(entry, "message", json::Str(f.message));
    json::SetKey(entry, "excerpt", json::Str(f.excerpt));
    findings.array.push_back(std::move(entry));
  }
  json::Value by_rule = json::Obj();
  for (const auto& [rule, count] : report.suppressed_by_rule) {
    json::SetKey(by_rule, rule, json::Num(static_cast<double>(count)));
  }
  json::Value errors = json::Arr();
  for (const std::string& error : report.errors) {
    errors.array.push_back(json::Str(error));
  }
  json::Value root = json::Obj();
  json::SetKey(root, "findings", std::move(findings));
  json::SetKey(root, "suppressed",
               json::Num(static_cast<double>(report.suppressed)));
  json::SetKey(root, "suppressed_by_rule", std::move(by_rule));
  json::SetKey(root, "baselined",
               json::Num(static_cast<double>(report.baselined)));
  json::SetKey(root, "errors", std::move(errors));
  json::SetKey(root, "files_scanned",
               json::Num(static_cast<double>(report.files_scanned)));
  return json::Dump(root) + "\n";
}

std::string FormatSarif(const LintReport& report) {
  const auto text = [](const std::string& message) {
    json::Value v = json::Obj();
    json::SetKey(v, "text", json::Str(message));
    return v;
  };
  json::Value rules = json::Arr();
  for (const RuleInfo& rule : Rules()) {
    json::Value entry = json::Obj();
    json::SetKey(entry, "id", json::Str(rule.name));
    json::SetKey(entry, "shortDescription", text(rule.summary));
    rules.array.push_back(std::move(entry));
  }
  json::Value results = json::Arr();
  for (const Finding& f : report.findings) {
    json::Value artifact = json::Obj();
    json::SetKey(artifact, "uri", json::Str(RepoRelative(f.file)));
    json::Value region = json::Obj();
    json::SetKey(region, "startLine", json::Num(f.line));
    json::Value physical = json::Obj();
    json::SetKey(physical, "artifactLocation", std::move(artifact));
    json::SetKey(physical, "region", std::move(region));
    json::Value location = json::Obj();
    json::SetKey(location, "physicalLocation", std::move(physical));
    json::Value entry = json::Obj();
    json::SetKey(entry, "ruleId", json::Str(f.rule));
    json::SetKey(entry, "level", json::Str("error"));
    json::SetKey(entry, "message", text(f.message));
    json::SetKey(entry, "locations", json::Arr({std::move(location)}));
    results.array.push_back(std::move(entry));
  }
  json::Value notifications = json::Arr();
  for (const std::string& error : report.errors) {
    json::Value entry = json::Obj();
    json::SetKey(entry, "level", json::Str("error"));
    json::SetKey(entry, "message", text(error));
    notifications.array.push_back(std::move(entry));
  }
  json::Value invocation = json::Obj();
  json::SetKey(invocation, "executionSuccessful",
               json::Bool(report.errors.empty()));
  json::SetKey(invocation, "toolExecutionNotifications",
               std::move(notifications));

  json::Value driver = json::Obj();
  json::SetKey(driver, "name", json::Str("muxlint"));
  json::SetKey(driver, "informationUri",
               json::Str("https://example.invalid/muxwise/tools/muxlint"));
  json::SetKey(driver, "rules", std::move(rules));
  json::Value tool = json::Obj();
  json::SetKey(tool, "driver", std::move(driver));
  json::Value run = json::Obj();
  json::SetKey(run, "tool", std::move(tool));
  json::SetKey(run, "results", std::move(results));
  json::SetKey(run, "invocations", json::Arr({std::move(invocation)}));

  json::Value root = json::Obj();
  json::SetKey(root, "$schema",
               json::Str("https://json.schemastore.org/sarif-2.1.0.json"));
  json::SetKey(root, "version", json::Str("2.1.0"));
  json::SetKey(root, "runs", json::Arr({std::move(run)}));
  return json::Dump(root) + "\n";
}

}  // namespace muxwise::muxlint
