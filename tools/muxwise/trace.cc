// `muxwise trace SCENARIO OUT.json`: runs one scenario file with a
// trace recorder attached and writes the trace as Chrome trace_event
// JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Tracing never touches the event stream, so the
// traced run must be bit-identical to an untraced one: the command
// prints both event digests and fails when they differ.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "muxwise/cli.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/hash.h"

namespace muxwise::cli {

int TraceCommand(const std::vector<std::string>& args) {
  FlagSet flags("trace", args);
  if (!flags.Done(2, 2, "muxwise trace SCENARIO OUT.json")) return 2;
  const std::vector<std::string>& paths = flags.positional();
  const harness::ScenarioParseResult parsed =
      harness::LoadScenarioFile(paths[0]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "muxwise trace: %s\n", parsed.error.c_str());
    return 2;
  }

  obs::TraceRecorder recorder;
  const harness::RunOutcome traced =
      harness::RunScenario(*parsed.spec, &recorder);
  const harness::RunOutcome untraced = harness::RunScenario(*parsed.spec);

  std::ofstream out(paths[1], std::ios::binary);
  if (!(out << obs::ExportChromeJson(recorder))) {
    std::fprintf(stderr, "muxwise trace: failed to write %s\n",
                 paths[1].c_str());
    return 1;
  }

  std::printf("engine            %s\n", traced.engine.c_str());
  std::printf("requests          %zu/%zu completed\n", traced.completed,
              traced.total);
  std::printf("trace events      %zu (%zu dropped)\n", recorder.size(),
              recorder.dropped());
  std::printf("trace digest      %s\n",
              sim::HexDigest(obs::TraceDigest(recorder)).c_str());
  std::printf("event digest      %s (traced)\n",
              sim::HexDigest(traced.event_digest).c_str());
  std::printf("event digest      %s (untraced)\n",
              sim::HexDigest(untraced.event_digest).c_str());
  std::printf("wrote             %s\n", paths[1].c_str());

  if (traced.event_digest != untraced.event_digest ||
      traced.executed_events != untraced.executed_events) {
    std::fprintf(stderr, "tracing perturbed the simulated event stream\n");
    return 1;
  }
  return 0;
}

}  // namespace muxwise::cli
