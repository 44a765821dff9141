// scenariorun: runs declarative scenario files (scenarios/*.json) and
// gates what CI cares about.
//
//   scenariorun scenarios/foo.json             one run, print the report
//   scenariorun --matrix scenarios/*.json      determinism matrix: every
//                                              scenario runs twice and
//                                              both digests must agree
//   scenariorun --rss-ceiling-mb=N ...         gate peak RSS
//   scenariorun --rss-baseline=out.json --rss-growth-max=R
//                                              gate peak RSS against a
//                                              previous invocation's --out
//                                              artifact (the O(1)-memory
//                                              scale-comparison gate)
//   scenariorun --out=FILE ...                 write the outcome artifact
//
// Streaming scenarios additionally run the sketch-vs-exact accuracy
// gate: the full-population sketch's p50/p99 must sit within a relative
// tolerance of the exact quantiles of the deterministic 1-in-K
// subsample (--p50-tolerance / --p99-tolerance, defaults 5% / 10%).
//
// Exit status: 0 when every scenario ran and every requested gate held.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "harness/json.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/streaming.h"
#include "serve/quantile_sketch.h"

namespace muxwise {
namespace {

struct Options {
  bool matrix = false;
  double rss_ceiling_mb = 0.0;
  std::string rss_baseline_path;
  double rss_growth_max = 0.0;
  double p50_tolerance = 0.05;
  double p99_tolerance = 0.10;
  std::string out_path;
  std::vector<std::string> scenarios;
};

struct ScenarioReport {
  std::string name;
  std::string path;
  std::string kind;  // "trace" or "streaming"
  std::string engine;
  bool ok = true;
  std::vector<std::string> failures;

  bool stable = false;
  std::uint64_t completed = 0;
  std::uint64_t total = 0;
  std::uint64_t event_digest = 0;
  std::uint64_t outcome_digest = 0;
  std::uint64_t metrics_state_digest = 0;
  std::size_t metric_bytes = 0;
  double ttft_p50_sketch = 0.0;
  double ttft_p99_sketch = 0.0;
  double ttft_p50_exact = 0.0;
  double ttft_p99_exact = 0.0;
  double peak_rss_mb = 0.0;
};

double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
#endif
  }
#endif
  return 0.0;
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--matrix") {
      options.matrix = true;
    } else if (arg.rfind("--rss-ceiling-mb=", 0) == 0) {
      options.rss_ceiling_mb =
          std::atof(value_of("--rss-ceiling-mb=").c_str());
    } else if (arg.rfind("--rss-baseline=", 0) == 0) {
      options.rss_baseline_path = value_of("--rss-baseline=");
    } else if (arg.rfind("--rss-growth-max=", 0) == 0) {
      options.rss_growth_max =
          std::atof(value_of("--rss-growth-max=").c_str());
    } else if (arg.rfind("--p50-tolerance=", 0) == 0) {
      options.p50_tolerance = std::atof(value_of("--p50-tolerance=").c_str());
    } else if (arg.rfind("--p99-tolerance=", 0) == 0) {
      options.p99_tolerance = std::atof(value_of("--p99-tolerance=").c_str());
    } else if (arg.rfind("--out=", 0) == 0) {
      options.out_path = value_of("--out=");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "scenariorun: unknown flag %s\n", arg.c_str());
      return false;
    } else {
      options.scenarios.push_back(arg);
    }
  }
  if (options.scenarios.empty()) {
    std::fprintf(stderr, "scenariorun: no scenario files given\n");
    return false;
  }
  return true;
}

/** Peak RSS recorded in a previous invocation's --out artifact (the
 * max across its scenarios); <= 0 when absent/unreadable. */
double BaselinePeakRssMb(const std::string& path, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open RSS baseline " + path;
    return 0.0;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  harness::json::Value root;
  if (!harness::json::Parse(text, root, error)) return 0.0;
  const harness::json::Value* scenarios = root.Find("scenarios");
  if (scenarios == nullptr || !scenarios->IsArray()) {
    error = "RSS baseline has no scenarios array";
    return 0.0;
  }
  double peak = 0.0;
  for (const harness::json::Value& entry : scenarios->array) {
    peak = std::max(
        peak, harness::json::GetNumber(entry.Find("peak_rss_mb"), 0.0));
  }
  if (peak <= 0.0) error = "RSS baseline records no peak_rss_mb";
  return peak;
}

void RunTraceScenario(const harness::ScenarioSpec& spec, const Options& options,
                      ScenarioReport& report) {
  if (options.matrix) {
    // Two back-to-back runs pin bit-reproducibility of the event stream
    // and of the sketch states folded into the outcome digest.
    const harness::RunOutcome first = harness::RunScenario(spec);
    const harness::RunOutcome second = harness::RunScenario(spec);
    report.stable = first.stable;
    report.completed = first.completed;
    report.total = first.total;
    report.event_digest = first.event_digest;
    report.outcome_digest = harness::OutcomeDigest(first);
    report.metrics_state_digest = first.metrics_state_digest;
    if (second.event_digest != first.event_digest ||
        harness::OutcomeDigest(second) != report.outcome_digest) {
      report.failures.push_back("double run diverged: " +
                                Hex(report.outcome_digest) + " vs " +
                                Hex(harness::OutcomeDigest(second)));
    }
    if (second.metrics_state_digest != first.metrics_state_digest) {
      report.failures.push_back("sketch state diverged across runs");
    }
    return;
  }

  const harness::RunOutcome outcome = harness::RunScenario(spec);
  report.stable = outcome.stable;
  report.completed = outcome.completed;
  report.total = outcome.total;
  report.event_digest = outcome.event_digest;
  report.outcome_digest = harness::OutcomeDigest(outcome);
  report.metrics_state_digest = outcome.metrics_state_digest;
  report.ttft_p50_sketch = outcome.ttft.p50_ms;
  report.ttft_p99_sketch = outcome.ttft.p99_ms;
  if (!outcome.stable) {
    report.failures.push_back("unstable: " + outcome.diagnostic);
  }
}

void RunStreamingScenarioReport(const harness::ScenarioSpec& spec,
                                const Options& options,
                                ScenarioReport& report) {
  auto run_once = [&spec] { return harness::RunStreamingScenario(spec); };

  const harness::StreamingOutcome outcome = run_once();
  report.stable = outcome.stable;
  report.completed = outcome.completed;
  report.total = outcome.total;
  report.event_digest = outcome.event_digest;
  report.outcome_digest = outcome.event_digest;
  report.metrics_state_digest = outcome.metrics_state_digest;
  report.metric_bytes = outcome.metric_bytes;
  report.ttft_p50_sketch = outcome.ttft_sketch.Quantile(0.5);
  report.ttft_p99_sketch = outcome.ttft_sketch.Quantile(0.99);
  if (!outcome.stable) {
    report.failures.push_back("unstable: " + outcome.diagnostic);
  }

  if (options.matrix) {
    const harness::StreamingOutcome second = run_once();
    if (second.event_digest != outcome.event_digest ||
        second.metrics_state_digest != outcome.metrics_state_digest) {
      report.failures.push_back("double run diverged");
    }
    return;
  }

  // Sketch-vs-exact accuracy gate on the deterministic 1-in-K
  // subsample. The subsample is itself a random draw from the same
  // population, so the tolerances bound sketch quantization + sampling
  // noise together.
  if (!outcome.ttft_subsample_ms.empty()) {
    std::vector<double> exact = outcome.ttft_subsample_ms;
    report.ttft_p50_exact = serve::Percentile(exact, 0.5);
    report.ttft_p99_exact = serve::Percentile(exact, 0.99);
    auto check = [&report](const char* label, double sketch_value,
                           double exact_value, double tolerance) {
      const double scale = std::max(std::abs(exact_value), 1e-9);
      const double relative = std::abs(sketch_value - exact_value) / scale;
      if (relative > tolerance) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s accuracy: sketch %.3f ms vs exact %.3f ms "
                      "(%.2f%% > %.2f%% tolerance)",
                      label, sketch_value, exact_value, relative * 100.0,
                      tolerance * 100.0);
        report.failures.push_back(buf);
      }
    };
    check("p50", report.ttft_p50_sketch, report.ttft_p50_exact,
          options.p50_tolerance);
    check("p99", report.ttft_p99_sketch, report.ttft_p99_exact,
          options.p99_tolerance);
  }
}

bool WriteArtifact(const std::string& path,
                   const std::vector<ScenarioReport>& reports) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\n  \"schema_version\": 1,\n  \"scenarios\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ScenarioReport& r = reports[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"name\": \"" << harness::json::Escape(r.name) << "\",\n";
    out << "      \"path\": \"" << harness::json::Escape(r.path) << "\",\n";
    out << "      \"kind\": \"" << r.kind << "\",\n";
    out << "      \"engine\": \"" << harness::json::Escape(r.engine)
        << "\",\n";
    out << "      \"ok\": " << (r.ok ? "true" : "false") << ",\n";
    out << "      \"stable\": " << (r.stable ? "true" : "false") << ",\n";
    out << "      \"completed\": " << r.completed << ",\n";
    out << "      \"total\": " << r.total << ",\n";
    out << "      \"event_digest\": \"" << Hex(r.event_digest) << "\",\n";
    out << "      \"outcome_digest\": \"" << Hex(r.outcome_digest) << "\",\n";
    out << "      \"metrics_state_digest\": \"" << Hex(r.metrics_state_digest)
        << "\",\n";
    out << "      \"metric_bytes\": " << r.metric_bytes << ",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "      \"ttft_p50_sketch_ms\": %.6g,\n"
                  "      \"ttft_p99_sketch_ms\": %.6g,\n"
                  "      \"ttft_p50_exact_ms\": %.6g,\n"
                  "      \"ttft_p99_exact_ms\": %.6g,\n"
                  "      \"peak_rss_mb\": %.2f,\n",
                  r.ttft_p50_sketch, r.ttft_p99_sketch, r.ttft_p50_exact,
                  r.ttft_p99_exact, r.peak_rss_mb);
    out << buf;
    out << "      \"failures\": [";
    for (std::size_t j = 0; j < r.failures.size(); ++j) {
      out << (j == 0 ? "" : ", ") << "\""
          << harness::json::Escape(r.failures[j]) << "\"";
    }
    out << "]\n    }";
  }
  if (!reports.empty()) out << "\n  ";
  out << "]\n}\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) return 2;

  std::vector<ScenarioReport> reports;
  bool all_ok = true;
  for (const std::string& path : options.scenarios) {
    ScenarioReport report;
    report.path = path;
    const harness::ScenarioParseResult parsed =
        harness::LoadScenarioFile(path);
    if (!parsed.ok()) {
      report.name = path;
      report.kind = "invalid";
      report.failures.push_back("parse: " + parsed.error);
      report.ok = false;
      all_ok = false;
      reports.push_back(report);
      std::fprintf(stderr, "FAIL %s\n  %s\n", path.c_str(),
                   parsed.error.c_str());
      continue;
    }
    const harness::ScenarioSpec& spec = *parsed.spec;
    report.name = spec.name;
    report.engine = harness::EngineKindName(spec.engine);
    report.kind = spec.IsStreaming() ? "streaming" : "trace";

    if (spec.IsStreaming()) {
      RunStreamingScenarioReport(spec, options, report);
    } else {
      RunTraceScenario(spec, options, report);
    }
    report.peak_rss_mb = PeakRssMb();

    if (options.rss_ceiling_mb > 0.0 &&
        report.peak_rss_mb > options.rss_ceiling_mb) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "peak RSS %.1f MiB exceeds ceiling %.1f MiB",
                    report.peak_rss_mb, options.rss_ceiling_mb);
      report.failures.push_back(buf);
    }
    if (!options.rss_baseline_path.empty() && options.rss_growth_max > 0.0) {
      std::string error;
      const double baseline =
          BaselinePeakRssMb(options.rss_baseline_path, error);
      if (baseline <= 0.0) {
        report.failures.push_back("RSS baseline unusable: " + error);
      } else if (report.peak_rss_mb > baseline * options.rss_growth_max) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "peak RSS %.1f MiB exceeds %.2fx the %.1f MiB "
                      "baseline — metric memory is not O(1) in request count",
                      report.peak_rss_mb, options.rss_growth_max, baseline);
        report.failures.push_back(buf);
      }
    }

    report.ok = report.failures.empty();
    all_ok = all_ok && report.ok;
    std::printf("%s %s [%s/%s] digest %s  %llu/%llu completed  rss %.1f MiB\n",
                report.ok ? "ok  " : "FAIL", report.name.c_str(),
                report.kind.c_str(), report.engine.c_str(),
                Hex(report.outcome_digest).c_str(),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.total),
                report.peak_rss_mb);
    for (const std::string& failure : report.failures) {
      std::printf("     - %s\n", failure.c_str());
    }
    reports.push_back(report);
  }

  if (!options.out_path.empty() &&
      !WriteArtifact(options.out_path, reports)) {
    std::fprintf(stderr, "scenariorun: cannot write %s\n",
                 options.out_path.c_str());
    all_ok = false;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace muxwise

int main(int argc, char** argv) { return muxwise::Main(argc, argv); }
