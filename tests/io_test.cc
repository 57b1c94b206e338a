#include "data/io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "data/generators.h"

namespace dwm {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(IoTest, BinaryRoundtrip) {
  const auto data = MakeUniform(1000, 100.0, 1);
  const std::string path = TempPath("dwm_io_test.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, data).ok());
  std::vector<double> back;
  ASSERT_TRUE(ReadDoublesBinary(path, &back).ok());
  EXPECT_EQ(back, data);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryEmpty) {
  const std::string path = TempPath("dwm_io_empty.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, {}).ok());
  std::vector<double> back = {1.0};
  ASSERT_TRUE(ReadDoublesBinary(path, &back).ok());
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(IoTest, CsvRoundtrip) {
  const std::vector<double> data = {1.5, -2.25, 0.0, 1e17, 3.14159265358979};
  const std::string path = TempPath("dwm_io_test.csv");
  ASSERT_TRUE(WriteDoublesCsv(path, data).ok());
  std::vector<double> back;
  ASSERT_TRUE(ReadDoublesCsv(path, &back).ok());
  ASSERT_EQ(back.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) EXPECT_DOUBLE_EQ(back[i], data[i]);
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileFails) {
  std::vector<double> out;
  const Status s = ReadDoublesBinary("/nonexistent/dir/file.bin", &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_FALSE(ReadDoublesCsv("/nonexistent/dir/file.csv", &out).ok());
}

TEST(IoTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteDoublesBinary("/nonexistent/dir/file.bin", {1.0}).ok());
  EXPECT_FALSE(WriteDoublesCsv("/nonexistent/dir/file.csv", {1.0}).ok());
}

TEST(IoTest, TruncatedBinaryFails) {
  const std::string path = TempPath("dwm_io_trunc.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, MakeUniform(100, 1.0, 2)).ok());
  std::filesystem::resize_file(path, 50);
  std::vector<double> out;
  EXPECT_FALSE(ReadDoublesBinary(path, &out).ok());
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, Roundtrip) {
  const Synopsis s(64, {{0, 7.5}, {3, -2.25}, {63, 1e-12}});
  const std::string path = TempPath("dwm_synopsis.bin");
  ASSERT_TRUE(WriteSynopsis(path, s).ok());
  Synopsis back;
  ASSERT_TRUE(ReadSynopsis(path, &back).ok());
  EXPECT_EQ(back.domain_size(), 64);
  EXPECT_EQ(back.coefficients(), s.coefficients());
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, EmptySynopsis) {
  const Synopsis s(8, {});
  const std::string path = TempPath("dwm_synopsis_empty.bin");
  ASSERT_TRUE(WriteSynopsis(path, s).ok());
  Synopsis back;
  ASSERT_TRUE(ReadSynopsis(path, &back).ok());
  EXPECT_EQ(back.domain_size(), 8);
  EXPECT_EQ(back.size(), 0);
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("dwm_synopsis_bad.bin");
  ASSERT_TRUE(WriteDoublesBinary(path, {1.0, 2.0, 3.0}).ok());
  Synopsis back;
  const Status s = ReadSynopsis(path, &back);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SynopsisIoTest, TruncatedPayloadFails) {
  const Synopsis s(64, {{1, 1.0}, {2, 2.0}, {3, 3.0}});
  const std::string path = TempPath("dwm_synopsis_trunc.bin");
  ASSERT_TRUE(WriteSynopsis(path, s).ok());
  std::filesystem::resize_file(path, 40);
  Synopsis back;
  EXPECT_FALSE(ReadSynopsis(path, &back).ok());
  std::remove(path.c_str());
}

TEST(IoTest, UnparsableCsvFails) {
  const std::string path = TempPath("dwm_io_bad.csv");
  {
    std::ofstream out(path);
    out << "1.5\nnot-a-number-###\n";
  }
  std::vector<double> out_vec;
  EXPECT_FALSE(ReadDoublesCsv(path, &out_vec).ok());
  std::remove(path.c_str());
}

// Reads `text` as a CSV file; nothing on an error Status.
std::optional<std::vector<double>> ReadCsvText(const std::string& text) {
  const std::string path = TempPath("dwm_io_lines.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::vector<double> values;
  const Status status = ReadDoublesCsv(path, &values);
  std::remove(path.c_str());
  if (!status.ok()) return std::nullopt;
  return values;
}

// Each line is one number by the common/parse.h rule: istringstream used
// to read the leading number and ignore the rest.
TEST(IoTest, CsvLineWithMoreThanOneNumberFails) {
  for (const char* line :
       {"1.5,2\n", "1.5 2\n", "1.5;\n", "+1\n", "0x10\n", "inf\n", "nan\n",
        "1e400\n", " \n", "1.5e\n", "--1\n"}) {
    EXPECT_FALSE(ReadCsvText(std::string("0\n") + line).has_value())
        << line;
  }
}

TEST(IoTest, CsvLinesWithSurroundingWhitespaceLoad) {
  const auto values = ReadCsvText(" 1.5\n-2\t\n3\r\n\n-0\n1e-310\n");
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(*values, (std::vector<double>{1.5, -2.0, 3.0, -0.0, 1e-310}));
}

TEST(IoTest, CsvRoundtripIsExactAtTheExtremes) {
  const std::vector<double> data = {
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
      -0.0, 0.1, 1.0 / 3.0, -123456789.123456789};
  const std::string path = TempPath("dwm_io_extremes.csv");
  ASSERT_TRUE(WriteDoublesCsv(path, data).ok());
  std::vector<double> back;
  ASSERT_TRUE(ReadDoublesCsv(path, &back).ok());
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(back[i]), std::bit_cast<uint64_t>(data[i]))
        << i;
  }
}

}  // namespace
}  // namespace dwm
