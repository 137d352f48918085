// CSV trace/series output.  Benches and examples emit one CSV per figure so
// plots can be regenerated from the same rows the paper reports.
#pragma once

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace tfsim::sim {

/// Minimal CSV writer with RFC-4180 quoting for string cells.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates).  Throws std::runtime_error on
  /// failure.  Rows go through the stream's buffer, so the file is
  /// complete once the writer is destroyed.
  explicit CsvWriter(const std::string& path);
  /// In-memory mode (for tests); contents available via str().
  CsvWriter();

  void header(const std::vector<std::string>& cols);

  class Row {
   public:
    explicit Row(CsvWriter& w) : writer_(w) {}
    ~Row();
    Row(const Row&) = delete;
    Row& operator=(const Row&) = delete;

    Row& col(const std::string& v);
    Row& col(double v);
    Row& col(std::uint64_t v);
    Row& col(std::int64_t v);
    Row& col(int v) { return col(static_cast<std::int64_t>(v)); }

   private:
    CsvWriter& writer_;
    std::vector<std::string> cells_;
    friend class CsvWriter;
  };

  Row row() { return Row(*this); }

  /// Contents so far (in-memory mode or mirror of what was written).
  std::string str() const { return buffer_.str(); }

  std::size_t rows_written() const { return rows_; }

 private:
  void write_line(const std::vector<std::string>& cells);
  static std::string escape(const std::string& cell);

  std::ofstream file_;
  std::ostringstream buffer_;
  bool to_file_ = false;
  std::size_t rows_ = 0;
  std::size_t header_cols_ = 0;
};

}  // namespace tfsim::sim
