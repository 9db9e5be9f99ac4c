#include "workload/trace.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace cbs::workload::trace {

namespace {

constexpr std::string_view kHeader =
    "batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,"
    "resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb";

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

/// Parses the fields of one data row; every error names the line.
class RowParser {
 public:
  RowParser(const std::vector<std::string>& fields, std::size_t line_no)
      : fields_(fields), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace: line " + std::to_string(line_no_) + ": " +
                             what);
  }

  /// A finite, nonnegative number: times, sizes and every feature.
  double quantity(std::size_t column, std::string_view name) const {
    const std::string& s = fields_[column];
    double v = 0.0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || end != s.data() + s.size()) {
      fail("bad number '" + s + "' for " + std::string(name));
    }
    if (!std::isfinite(v)) {
      fail(std::string(name) + " is not finite: '" + s + "'");
    }
    if (v < 0.0) fail(std::string(name) + " is negative: '" + s + "'");
    return v;
  }

  /// A nonnegative integer that fits T: batch indices, ids and counts.
  template <typename T>
  T count(std::size_t column, std::string_view name) const {
    const std::string& s = fields_[column];
    if (!s.empty() && s.front() == '-') {
      fail(std::string(name) + " is negative: '" + s + "'");
    }
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc::result_out_of_range) {
      fail(std::string(name) + " is out of range: '" + s + "'");
    }
    if (ec != std::errc{} || end != s.data() + s.size()) {
      fail("bad integer '" + s + "' for " + std::string(name));
    }
    return v;
  }

  JobType job_type(std::size_t column) const {
    for (JobType t : kAllJobTypes) {
      if (to_string(t) == fields_[column]) return t;
    }
    fail("unknown job type '" + fields_[column] + "'");
  }

 private:
  const std::vector<std::string>& fields_;
  std::size_t line_no_;
};

}  // namespace

std::size_t write(std::ostream& out, const std::vector<Batch>& batches) {
  // Enough digits that read() recovers every double exactly.
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << kHeader << "\n";
  std::size_t rows = 0;
  for (const Batch& b : batches) {
    for (const Document& d : b.documents) {
      const DocumentFeatures& f = d.features;
      out << b.batch_index << ',' << b.arrival_time << ',' << d.doc_id << ','
          << to_string(f.type) << ',' << f.size_mb << ',' << f.pages << ','
          << f.num_images << ',' << f.avg_image_mb << ',' << f.resolution_dpi
          << ',' << f.color_fraction << ',' << f.text_ratio << ',' << f.coverage
          << ',' << d.output_size_mb << "\n";
      ++rows;
    }
  }
  out.precision(old_precision);
  return rows;
}

std::size_t write_file(const std::string& path, const std::vector<Batch>& batches) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open for write: " + path);
  const std::size_t rows = write(out, batches);
  if (!out) throw std::runtime_error("trace: write failed: " + path);
  return rows;
}

std::vector<Batch> read(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("trace: empty input");
  if (line != kHeader) throw std::runtime_error("trace: unexpected header");

  // batch index -> batch, ordered.
  std::map<std::size_t, Batch> by_index;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    if (fields.size() != 13) {
      throw std::runtime_error("trace: line " + std::to_string(line_no) +
                               ": expected 13 fields, got " +
                               std::to_string(fields.size()));
    }
    const RowParser row(fields, line_no);
    const auto batch_index = row.count<std::size_t>(0, "batch");
    const double arrival_time = row.quantity(1, "arrival_time");

    Document d;
    d.doc_id = row.count<std::uint64_t>(2, "doc_id");
    d.features.type = row.job_type(3);
    d.features.size_mb = row.quantity(4, "size_mb");
    d.features.pages = row.count<int>(5, "pages");
    d.features.num_images = row.count<int>(6, "num_images");
    d.features.avg_image_mb = row.quantity(7, "avg_image_mb");
    d.features.resolution_dpi = row.quantity(8, "resolution_dpi");
    d.features.color_fraction = row.quantity(9, "color_fraction");
    d.features.text_ratio = row.quantity(10, "text_ratio");
    d.features.coverage = row.quantity(11, "coverage");
    d.output_size_mb = row.quantity(12, "output_size_mb");

    Batch& batch = by_index[batch_index];
    batch.batch_index = batch_index;
    batch.arrival_time = arrival_time;
    batch.documents.push_back(d);
  }

  std::vector<Batch> batches;
  batches.reserve(by_index.size());
  for (auto& [idx, batch] : by_index) batches.push_back(std::move(batch));
  return batches;
}

std::vector<Batch> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open for read: " + path);
  return read(in);
}

std::vector<Batch> round_trip(const std::vector<Batch>& batches) {
  std::stringstream ss;
  write(ss, batches);
  return read(ss);
}

}  // namespace cbs::workload::trace
