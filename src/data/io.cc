#include "data/io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string_view>

#include "common/parse.h"

namespace dwm {

Status WriteDoublesBinary(const std::string& path,
                          const std::vector<double>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  const uint64_t n = data.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status ReadDoublesBinary(const std::string& path, std::vector<double>* data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) return Status::IOError("truncated header: " + path);
  data->resize(n);
  in.read(reinterpret_cast<char*>(data->data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!in) return Status::IOError("truncated payload: " + path);
  return Status::OK();
}

Status WriteDoublesCsv(const std::string& path,
                       const std::vector<double>& data) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (double v : data) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g\n", v);
    out << buf;
  }
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

namespace {
constexpr uint64_t kSynopsisMagic = 0x44574d53594e3031ULL;  // "DWMSYN01"
}  // namespace

Status WriteSynopsis(const std::string& path, const Synopsis& synopsis) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  const uint64_t magic = kSynopsisMagic;
  const int64_t domain = synopsis.domain_size();
  const uint64_t count = static_cast<uint64_t>(synopsis.size());
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&domain), sizeof(domain));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Coefficient& c : synopsis.coefficients()) {
    out.write(reinterpret_cast<const char*>(&c.index), sizeof(c.index));
    out.write(reinterpret_cast<const char*>(&c.value), sizeof(c.value));
  }
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status ReadSynopsis(const std::string& path, Synopsis* synopsis) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  uint64_t magic = 0;
  int64_t domain = 0;
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&domain), sizeof(domain));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::IOError("truncated header: " + path);
  if (magic != kSynopsisMagic) {
    return Status::InvalidArgument("not a synopsis file: " + path);
  }
  if (domain < 0 || count > static_cast<uint64_t>(domain)) {
    return Status::InvalidArgument("corrupt synopsis header: " + path);
  }
  std::vector<Coefficient> coefficients;
  // The count is data-driven; cap the pre-reservation so a corrupt header
  // cannot request an absurd allocation before the per-record reads fail.
  coefficients.reserve(
      static_cast<size_t>(std::min<uint64_t>(count, uint64_t{1} << 20)));
  for (uint64_t i = 0; i < count; ++i) {
    Coefficient c;
    in.read(reinterpret_cast<char*>(&c.index), sizeof(c.index));
    in.read(reinterpret_cast<char*>(&c.value), sizeof(c.value));
    if (!in) return Status::IOError("truncated payload: " + path);
    coefficients.push_back(c);
  }
  // Create (not the CHECKing constructor): the pairs are file bytes, so
  // duplicate or out-of-range indices must surface as a Status, never abort.
  DWM_RETURN_NOT_OK(Synopsis::Create(domain, std::move(coefficients),
                                     synopsis));
  return Status::OK();
}

Status ReadDoublesCsv(const std::string& path, std::vector<double>* data) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  data->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // One value per line, by the parse::Number rule ("1.5,2" and "+1" fail).
    const std::vector<std::string_view> fields = parse::Fields(line);
    const std::optional<double> v =
        fields.size() == 1 ? parse::Number<double>(fields[0]) : std::nullopt;
    if (!v) {
      return Status::IOError("unparsable CSV line in " + path + ": " + line);
    }
    data->push_back(*v);
  }
  return Status::OK();
}

}  // namespace dwm
