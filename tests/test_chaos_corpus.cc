#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "muxwise/check.h"

namespace muxwise::cli {
namespace {

namespace fs = std::filesystem;

/**
 * Replays every checked-in chaos repro through the same checker the
 * campaign uses. Corpus entries are minimized repros of *fixed* bugs
 * plus per-kind grey-failure coverage, so each one must pass all chaos
 * properties (stable drain, ledger balance, double-run bit-identity,
 * clean audits) — any violation or crash here is a regression. CI also
 * replays the corpus via `muxwise check`; this test keeps the gate in
 * plain `ctest` runs too.
 */

std::vector<fs::path> CorpusFiles() {
  const fs::path dir =
      fs::path(MUXWISE_SOURCE_DIR) / "tests" / "chaos_corpus";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ChaosCorpusTest, CorpusIsPresentAndCoversEveryGreyKind) {
  const std::vector<fs::path> files = CorpusFiles();
  ASSERT_GE(files.size(), 4u) << "corpus went missing";
  // Filename convention from the corpus README: each grey kind keeps
  // at least one named coverage entry.
  const auto has = [&](const char* needle) {
    return std::any_of(files.begin(), files.end(), [&](const fs::path& p) {
      return p.filename().string().find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(has("zombie"));
  EXPECT_TRUE(has("flap"));
  EXPECT_TRUE(has("degrade"));
  EXPECT_TRUE(has("partition"));
}

TEST(ChaosCorpusTest, EveryEntryReplaysClean) {
  for (const fs::path& file : CorpusFiles()) {
    SCOPED_TRACE(file.filename().string());
    const Verdict verdict = CheckFile(file.string());
    EXPECT_EQ(verdict.result, Verdict::Result::kPass) << verdict.detail;
  }
}

}  // namespace
}  // namespace muxwise::cli
