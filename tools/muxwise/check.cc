#include "muxwise/check.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "sim/hash.h"

namespace muxwise::cli {

namespace {

json::Value FailedEntry(const std::string& path, const std::string& failure) {
  json::Value entry = json::Obj();
  json::SetKey(entry, "name", json::Str(path));
  json::SetKey(entry, "path", json::Str(path));
  json::SetKey(entry, "ok", json::Bool(false));
  json::SetKey(entry, "failures", json::Arr({json::Str(failure)}));
  return entry;
}

/** The verdict an artifact entry records. */
Verdict FromEntry(json::Value entry) {
  Verdict v;
  if (!json::GetBool(entry.Find("ok"))) {
    v.result = Verdict::Result::kViolation;
    if (const json::Value* failures = entry.Find("failures")) {
      for (const json::Value& failure : failures->array) {
        v.detail += (v.detail.empty() ? "" : "; ") + failure.string;
      }
    }
  }
  v.entry = std::move(entry);
  return v;
}

json::Value CheckInProcess(const harness::ScenarioSpec& spec,
                           const std::string& path) {
  const harness::RunOutcome first = harness::RunScenario(spec);
  const harness::RunCheck check =
      harness::CheckRun(first, [&spec] { return harness::RunScenario(spec); });
  return ScenarioEntry(path, spec, first, check);
}

}  // namespace

json::Value ScenarioEntry(const std::string& path,
                          const harness::ScenarioSpec& spec,
                          const harness::RunOutcome& o,
                          const harness::RunCheck& check) {
  using json::Num;
  using json::SetKey;
  using json::Str;
  json::Value failures = json::Arr();
  for (const std::string& failure : check.failures) {
    failures.array.push_back(Str(failure));
  }
  json::Value entry = json::Obj();
  SetKey(entry, "name", Str(spec.name));
  SetKey(entry, "path", Str(path));
  SetKey(entry, "kind", Str(spec.IsStreaming() ? "streaming" : "trace"));
  SetKey(entry, "engine", Str(o.engine));
  SetKey(entry, "ok", json::Bool(check.ok()));
  SetKey(entry, "stable", json::Bool(o.stable));
  SetKey(entry, "completed", Num(static_cast<double>(o.completed)));
  SetKey(entry, "total", Num(static_cast<double>(o.total)));
  SetKey(entry, "event_digest", Str(sim::HexDigest(o.event_digest)));
  SetKey(entry, "outcome_digest",
         Str(sim::HexDigest(harness::OutcomeDigest(o))));
  SetKey(entry, "metrics_state_digest",
         Str(sim::HexDigest(o.metrics_state_digest)));
  SetKey(entry, "metric_bytes", Num(static_cast<double>(o.metric_bytes)));
  SetKey(entry, "ttft_p50_sketch_ms", Num(o.ttft.p50_ms));
  SetKey(entry, "ttft_p99_sketch_ms", Num(o.ttft.p99_ms));
  SetKey(entry, "ttft_p50_exact_ms", Num(check.ttft_p50_exact_ms));
  SetKey(entry, "ttft_p99_exact_ms", Num(check.ttft_p99_exact_ms));
  SetKey(entry, "failures", std::move(failures));
  return entry;
}

Verdict CheckScenario(const harness::ScenarioSpec& spec,
                      const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  int fds[2];
  if (pipe(fds) != 0) return FromEntry(CheckInProcess(spec, path));
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return FromEntry(CheckInProcess(spec, path));
  }
  if (pid == 0) {
    close(fds[0]);
    // Silence the child: a violated invariant audit panics loudly
    // before aborting, and a campaign runs hundreds of children.
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, 1);
      dup2(devnull, 2);
    }
    const std::string payload = json::Dump(CheckInProcess(spec, path), 0);
    for (std::size_t done = 0; done < payload.size();) {
      const ssize_t n =
          write(fds[1], payload.data() + done, payload.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string payload;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    payload.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  json::Value entry;
  std::string error;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
      json::Parse(payload, entry, error)) {
    return FromEntry(std::move(entry));
  }
  const std::string how =
      WIFSIGNALED(status)
          ? "terminated by signal " + std::to_string(WTERMSIG(status))
          : "exited with status " + std::to_string(WEXITSTATUS(status));
  Verdict v = FromEntry(FailedEntry(
      path, "child " + how +
                " (invariant panic or crash; muxwise run the scenario for "
                "details)"));
  v.result = Verdict::Result::kCrash;
  return v;
#else
  return FromEntry(CheckInProcess(spec, path));
#endif
}

Verdict CheckFile(const std::string& path) {
  const harness::ScenarioParseResult parsed = harness::LoadScenarioFile(path);
  if (parsed.ok()) return CheckScenario(*parsed.spec, path);
  Verdict v = FromEntry(FailedEntry(path, "parse: " + parsed.error));
  v.result = Verdict::Result::kInvalid;
  return v;
}

}  // namespace muxwise::cli
