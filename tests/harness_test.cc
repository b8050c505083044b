// The bench harness's JSON emission: every string value (dataset, bench,
// series, point names) flows through JsonEscape before landing in
// BENCH_*.json, so one quote or backslash in a name must never corrupt the
// file; and a bench whose results cannot be written exits nonzero, so a
// gate that measured nothing never reads as passed.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/harness.h"

namespace structride {
namespace bench {
namespace {

TEST(JsonEscapeTest, PassesPlainStringsThrough) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("CHD baseline"), "CHD baseline");
  EXPECT_EQ(JsonEscape("abl_scenarios-0.25x"), "abl_scenarios-0.25x");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscapeTest, EscapesNamedControls) {
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape("cr\rlf\n"), "cr\\rlf\\n");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
}

TEST(JsonEscapeTest, EscapesOtherControlBytesAsUnicode) {
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  // 0x20 (space) and above pass through.
  EXPECT_EQ(JsonEscape(" ~"), " ~");
}

TEST(JsonEscapeTest, KeepsUtf8MultibyteSequencesIntact) {
  // Bytes >= 0x80 are not control characters; a UTF-8 dataset name must
  // survive byte-for-byte.
  EXPECT_EQ(JsonEscape("Chéngdū"), "Chéngdū");
}

// A fresh directory under the test temp dir.
std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "/structride-json-XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

// Records one value and exits 0 in a forked child with the JSON dir set,
// so the at-exit writer runs there and decides the exit status.
void RecordAndExit(const std::string& dir) {
  setenv("STRUCTRIDE_JSON_DIR", dir.c_str(), 1);
  RecordJsonValue("series", "point", "metric", 1.5);
  std::exit(0);
}

TEST(JsonAtExitDeathTest, UnwritableDirExitsNonzero) {
  const std::string dir = MakeTempDir();
  EXPECT_EXIT(RecordAndExit(dir + "/missing/sub"),
              ::testing::ExitedWithCode(EXIT_FAILURE), "cannot write");
  rmdir(dir.c_str());
}

TEST(JsonAtExitDeathTest, WritableDirExitsZeroWithTheFile) {
  const std::string dir = MakeTempDir();
  EXPECT_EXIT(RecordAndExit(dir), ::testing::ExitedWithCode(0), "wrote");
  const std::string path = dir + "/BENCH_harness_test.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"metric\": \"metric\", \"value\": 1.5"),
            std::string::npos);
  std::remove(path.c_str());
  rmdir(dir.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace structride
