#include "sim/trace.hpp"

#include <iomanip>
#include <stdexcept>

namespace tfsim::sim {

CsvWriter::CsvWriter(const std::string& path) : to_file_(true) {
  file_.open(path, std::ios::trunc);
  if (!file_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::CsvWriter() = default;

void CsvWriter::header(const std::vector<std::string>& cols) {
  header_cols_ = cols.size();
  write_line(cols);
}

CsvWriter::Row::~Row() {
  if (!cells_.empty()) writer_.write_line(cells_);
  if (!cells_.empty()) ++writer_.rows_;
}

CsvWriter::Row& CsvWriter::Row::col(const std::string& v) {
  cells_.push_back(escape(v));
  return *this;
}

CsvWriter::Row& CsvWriter::Row::col(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  cells_.push_back(os.str());
  return *this;
}

CsvWriter::Row& CsvWriter::Row::col(std::uint64_t v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

CsvWriter::Row& CsvWriter::Row::col(std::int64_t v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

void CsvWriter::write_line(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += cells[i];
  }
  line += '\n';
  buffer_ << line;
  if (to_file_) file_ << line;
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace tfsim::sim
