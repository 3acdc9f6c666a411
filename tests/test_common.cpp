// Unit tests for the shared utilities: error macros, aligned buffers,
// tables, CLI parsing, unit formatting.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>

#include "common/aligned_buffer.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace {

TEST(Error, RequireThrowsWithContext) {
  try {
    KPM_REQUIRE(1 == 2, "the impossible happened");
    FAIL() << "expected kpm::Error";
  } catch (const kpm::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the impossible happened"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) { EXPECT_NO_THROW(KPM_REQUIRE(2 + 2 == 4, "math works")); }

TEST(Error, FailAlwaysThrows) { EXPECT_THROW(KPM_FAIL("bang"), kpm::Error); }

TEST(AlignedBuffer, ZeroInitializedAndAligned) {
  kpm::AlignedBuffer<double> buf(100);
  EXPECT_EQ(buf.size(), 100u);
  for (double v : buf) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kpm::kCacheLineBytes, 0u);
}

TEST(AlignedBuffer, CopyIsDeep) {
  kpm::AlignedBuffer<int> a(8);
  a[3] = 42;
  kpm::AlignedBuffer<int> b = a;
  b[3] = 7;
  EXPECT_EQ(a[3], 42);
  EXPECT_EQ(b[3], 7);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  kpm::AlignedBuffer<int> a(8);
  a[0] = 1;
  kpm::AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented post-move state
}

TEST(AlignedBuffer, FillSetsEveryElement) {
  kpm::AlignedBuffer<double> buf(17);
  buf.fill(2.5);
  for (double v : buf) EXPECT_EQ(v, 2.5);
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  kpm::AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.begin(), buf.end());
}

TEST(Table, AlignsColumnsAndCountsRows) {
  kpm::Table t({"N", "time"});
  t.add_row({"128", "1.5 s"});
  t.add_row({"1024", "12.0 s"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("N"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
}

TEST(Table, RejectsWrongCellCount) {
  kpm::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), kpm::Error);
}

TEST(Table, CsvQuotesSpecialCells) {
  kpm::Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, WriteCsvRoundTrips) {
  kpm::Table t({"x"});
  t.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/kpm_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string header, row;
  std::getline(f, header);
  std::getline(f, row);
  EXPECT_EQ(header, "x");
  EXPECT_EQ(row, "1");
}

TEST(Strprintf, FormatsLikePrintf) {
  EXPECT_EQ(kpm::strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(kpm::strprintf("%.2f", 1.239), "1.24");
}

TEST(Cli, ParsesAllKinds) {
  kpm::CliParser cli("prog", "test");
  const auto* n = cli.add_int("n", 10, "an int");
  const auto* x = cli.add_double("x", 0.5, "a double");
  const auto* s = cli.add_string("s", "abc", "a string");
  const auto* f = cli.add_flag("fast", "a flag");
  const char* argv[] = {"prog", "--n=42", "--x", "2.25", "--s=hello", "--fast"};
  cli.parse(6, argv);
  EXPECT_EQ(*n, 42);
  EXPECT_DOUBLE_EQ(*x, 2.25);
  EXPECT_EQ(*s, "hello");
  EXPECT_TRUE(*f);
}

TEST(Cli, DefaultsSurviveWhenAbsent) {
  kpm::CliParser cli("prog", "test");
  const auto* n = cli.add_int("n", 10, "an int");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(*n, 10);
}

TEST(Cli, RejectsTrailingGarbage) {
  // A number must use the whole value: std::stoll/std::stod alone would
  // read "8x" as 8 and "0.5q" as 0.5.
  auto parse_one = [](const char* arg) {
    kpm::CliParser cli("prog", "test");
    cli.add_int("n", 10, "an int");
    cli.add_double("x", 0.5, "a double");
    const char* argv[] = {"prog", arg};
    cli.parse(2, argv);
  };
  EXPECT_EXIT(parse_one("--n=8x"), ::testing::ExitedWithCode(2),
              "cannot parse value '8x' for --n");
  EXPECT_EXIT(parse_one("--n=8abc"), ::testing::ExitedWithCode(2),
              "cannot parse value '8abc' for --n");
  EXPECT_EXIT(parse_one("--x=0.5q"), ::testing::ExitedWithCode(2),
              "cannot parse value '0.5q' for --x");
  EXPECT_EXIT(parse_one("--x=1e3x"), ::testing::ExitedWithCode(2),
              "cannot parse value '1e3x' for --x");
  EXPECT_EXIT(parse_one("--n="), ::testing::ExitedWithCode(2), "cannot parse value '' for --n");
}

TEST(Cli, UsageMentionsEveryOption) {
  kpm::CliParser cli("prog", "does things");
  cli.add_int("moments", 1, "number of moments");
  cli.add_flag("verbose", "talk more");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--moments"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("does things"), std::string::npos);
}

TEST(Units, FormatsAcrossMagnitudes) {
  EXPECT_EQ(kpm::format_seconds(2.5e-9), "2.5 ns");
  EXPECT_EQ(kpm::format_seconds(3.0e-5), "30.00 us");
  EXPECT_EQ(kpm::format_seconds(1.5e-2), "15.00 ms");
  EXPECT_EQ(kpm::format_seconds(2.0), "2.000 s");
  EXPECT_EQ(kpm::format_bytes(512), "512 B");
  EXPECT_EQ(kpm::format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(kpm::format_flops(5.0e8), "500.0 MFLOP/s");
  EXPECT_EQ(kpm::format_flops(2.0e10), "20.00 GFLOP/s");
}

TEST(Stopwatch, MeasuresMonotonically) {
  kpm::Stopwatch sw;
  const double t0 = sw.seconds();
  const double t1 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GE(t1, t0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

}  // namespace
