#include "mr/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

namespace dwm::mr {
namespace {

// 8-byte file magic; the trailing digit is cosmetic (the real format gate
// is CheckpointFrame::version, covered by the checksum).
constexpr char kMagic[8] = {'D', 'W', 'M', 'C', 'K', 'P', 'T', '1'};

uint64_t Fnv1aMix(uint64_t h, const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

// Reads the whole file; false on open/read failure. Size is bounded by
// what the writer produced, so a single resize + fread is fine.
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = std::fseek(f, 0, SEEK_END) == 0;
  long size = 0;
  if (ok) {
    size = std::ftell(f);
    ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  }
  if (ok) {
    bytes->resize(static_cast<size_t>(size));
    ok = size == 0 ||
         std::fread(bytes->data(), 1, bytes->size(), f) == bytes->size();
  }
  std::fclose(f);
  return ok;
}

std::string SanitizeForFilename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                      c == '_';
    out += keep ? c : '_';
  }
  return out;
}

void PutTaskAttempt(ByteBuffer& buffer, const TaskAttempt& attempt) {
  Serde<double>::Put(buffer, attempt.seconds);
  Serde<double>::Put(buffer, attempt.slowdown);
  Serde<int32_t>::Put(buffer, attempt.failed ? 1 : 0);
  Serde<int32_t>::Put(buffer, attempt.node_lost ? 1 : 0);
  Serde<double>::Put(buffer, attempt.cpu_seconds);
}

TaskAttempt GetTaskAttempt(ByteReader& reader) {
  TaskAttempt out;
  out.seconds = Serde<double>::Get(reader);
  out.slowdown = Serde<double>::Get(reader);
  out.failed = Serde<int32_t>::Get(reader) != 0;
  out.node_lost = Serde<int32_t>::Get(reader) != 0;
  out.cpu_seconds = Serde<double>::Get(reader);
  return out;
}

}  // namespace

uint64_t CheckpointFingerprint(const std::vector<double>& data,
                               const std::vector<int64_t>& params) {
  uint64_t h = kFnvOffset;
  h = Fnv1aMix(h, data.data(), data.size() * sizeof(double));
  for (const int64_t p : params) h = Fnv1aMix(h, &p, sizeof(p));
  return h;
}

CheckpointStore::CheckpointStore(std::string dir, std::string chain,
                                 uint64_t fingerprint)
    : dir_(std::move(dir)),
      chain_(std::move(chain)),
      fingerprint_(fingerprint) {}

std::string CheckpointStore::FilePath(int stage_index) const {
  return (std::filesystem::path(dir_) /
          (SanitizeForFilename(chain_) + "-" + std::to_string(stage_index) +
           ".ckpt"))
      .string();
}

bool CheckpointStore::Load(int stage_index, const std::string& stage,
                           std::vector<uint8_t>* payload) const {
  if (!enabled()) return false;
  const std::string path = FilePath(stage_index);
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) return false;
  // Verification order: size, checksum, magic — only then is the frame
  // trusted enough to decode. Anything corrupt is deleted so a damaged
  // file can never shadow the recomputed stage on the next resume.
  const size_t kTrailer = sizeof(uint64_t);
  bool corrupt = bytes.size() < sizeof(kMagic) + kTrailer;
  if (!corrupt) {
    const size_t body = bytes.size() - kTrailer;
    uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + body, kTrailer);
    corrupt = stored != Fnv1aMix(kFnvOffset, bytes.data(), body) ||
              std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0;
  }
  CheckpointFrame frame;
  if (!corrupt) {
    ByteReader reader(bytes.data() + sizeof(kMagic),
                      bytes.size() - sizeof(kMagic) - kTrailer);
    frame.version = reader.GetScalar<uint32_t>();
    frame.chain = Serde<std::string>::Get(reader);
    frame.stage = Serde<std::string>::Get(reader);
    frame.stage_index = Serde<int32_t>::Get(reader);
    frame.fingerprint = reader.GetScalar<uint64_t>();
    const uint64_t payload_size = reader.GetScalar<uint64_t>();
    corrupt = !reader.ok() || payload_size != reader.remaining();
    if (!corrupt) {
      frame.payload.resize(static_cast<size_t>(payload_size));
      reader.GetRaw(frame.payload.data(), frame.payload.size());
      corrupt = !reader.ok();
    }
  }
  if (corrupt) {
    std::error_code ec;  // best effort: an undeletable file stays a miss
    std::filesystem::remove(path, ec);
    return false;
  }
  // A cleanly-decoded frame that is not ours (older format, another chain
  // or stage layout, different input data) is a miss, not corruption: the
  // stage recomputes and Save overwrites it.
  if (frame.version != kCheckpointFormatVersion || frame.chain != chain_ ||
      frame.stage != stage || frame.stage_index != stage_index ||
      frame.fingerprint != fingerprint_) {
    return false;
  }
  *payload = std::move(frame.payload);
  return true;
}

Status CheckpointStore::Save(int stage_index, const std::string& stage,
                             const ByteBuffer& payload) const {
  if (!enabled()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("checkpoint: cannot create directory '" + dir_ +
                           "': " + ec.message());
  }
  ByteBuffer file;
  file.PutRaw(kMagic, sizeof(kMagic));
  file.PutScalar<uint32_t>(kCheckpointFormatVersion);
  Serde<std::string>::Put(file, chain_);
  Serde<std::string>::Put(file, stage);
  Serde<int32_t>::Put(file, stage_index);
  file.PutScalar<uint64_t>(fingerprint_);
  file.PutScalar<uint64_t>(static_cast<uint64_t>(payload.size()));
  file.PutRaw(payload.data(), payload.size());
  file.PutScalar<uint64_t>(Fnv1aMix(kFnvOffset, file.data(), file.size()));

  const std::string path = FilePath(stage_index);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("checkpoint: cannot open '" + tmp +
                           "' for writing");
  }
  const bool wrote =
      std::fwrite(file.data(), 1, file.size(), f) == file.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    return Status::IOError("checkpoint: short write to '" + tmp + "'");
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    return Status::IOError("checkpoint: cannot rename '" + tmp + "' to '" +
                           path + "': " + ec.message());
  }
  return Status::OK();
}

void PutTaskExecution(ByteBuffer& buffer, const TaskExecution& execution) {
  buffer.PutScalar<uint64_t>(execution.attempts.size());
  for (const TaskAttempt& attempt : execution.attempts) {
    PutTaskAttempt(buffer, attempt);
  }
}

TaskExecution GetTaskExecution(ByteReader& reader) {
  TaskExecution out;
  const uint64_t n = reader.GetScalar<uint64_t>();
  for (uint64_t i = 0; i < n && reader.ok(); ++i) {
    out.attempts.push_back(GetTaskAttempt(reader));
  }
  return out;
}

void PutJobStats(ByteBuffer& buffer, const JobStats& stats) {
  Serde<std::string>::Put(buffer, stats.name);
  Serde<int64_t>::Put(buffer, stats.map_tasks);
  Serde<int64_t>::Put(buffer, stats.reduce_tasks);
  Serde<int64_t>::Put(buffer, stats.input_bytes);
  Serde<int64_t>::Put(buffer, stats.shuffle_bytes);
  Serde<int64_t>::Put(buffer, stats.shuffle_records);
  Serde<int64_t>::Put(buffer, stats.output_records);
  Serde<double>::Put(buffer, stats.map_makespan_seconds);
  Serde<double>::Put(buffer, stats.shuffle_seconds);
  Serde<double>::Put(buffer, stats.reduce_makespan_seconds);
  Serde<double>::Put(buffer, stats.job_overhead_seconds);
  Serde<double>::Put(buffer, stats.real_seconds);
  buffer.PutScalar<uint64_t>(stats.map_attempts.size());
  for (const TaskExecution& e : stats.map_attempts) {
    PutTaskExecution(buffer, e);
  }
  buffer.PutScalar<uint64_t>(stats.reduce_attempts.size());
  for (const TaskExecution& e : stats.reduce_attempts) {
    PutTaskExecution(buffer, e);
  }
  Serde<std::vector<double>>::Put(buffer, stats.map_task_in_bytes);
  Serde<std::vector<int64_t>>::Put(buffer, stats.map_task_out_bytes);
  Serde<std::vector<int64_t>>::Put(buffer, stats.map_task_records);
  Serde<std::vector<int64_t>>::Put(buffer, stats.reduce_task_in_bytes);
  Serde<std::vector<int64_t>>::Put(buffer, stats.reduce_task_records);
  Serde<std::vector<int64_t>>::Put(buffer, stats.reduce_task_out_records);
  Serde<int64_t>::Put(buffer, stats.task_attempts);
  Serde<int64_t>::Put(buffer, stats.failed_attempts);
  Serde<int64_t>::Put(buffer, stats.node_loss_kills);
  Serde<int64_t>::Put(buffer, stats.straggler_attempts);
  Serde<int64_t>::Put(buffer, stats.speculative_backups);
  Serde<int64_t>::Put(buffer, stats.skipped_bad_records);
}

JobStats GetJobStats(ByteReader& reader) {
  JobStats out;
  out.name = Serde<std::string>::Get(reader);
  out.map_tasks = Serde<int64_t>::Get(reader);
  out.reduce_tasks = Serde<int64_t>::Get(reader);
  out.input_bytes = Serde<int64_t>::Get(reader);
  out.shuffle_bytes = Serde<int64_t>::Get(reader);
  out.shuffle_records = Serde<int64_t>::Get(reader);
  out.output_records = Serde<int64_t>::Get(reader);
  out.map_makespan_seconds = Serde<double>::Get(reader);
  out.shuffle_seconds = Serde<double>::Get(reader);
  out.reduce_makespan_seconds = Serde<double>::Get(reader);
  out.job_overhead_seconds = Serde<double>::Get(reader);
  out.real_seconds = Serde<double>::Get(reader);
  const uint64_t maps = reader.GetScalar<uint64_t>();
  for (uint64_t i = 0; i < maps && reader.ok(); ++i) {
    out.map_attempts.push_back(GetTaskExecution(reader));
  }
  const uint64_t reduces = reader.GetScalar<uint64_t>();
  for (uint64_t i = 0; i < reduces && reader.ok(); ++i) {
    out.reduce_attempts.push_back(GetTaskExecution(reader));
  }
  out.map_task_in_bytes = Serde<std::vector<double>>::Get(reader);
  out.map_task_out_bytes = Serde<std::vector<int64_t>>::Get(reader);
  out.map_task_records = Serde<std::vector<int64_t>>::Get(reader);
  out.reduce_task_in_bytes = Serde<std::vector<int64_t>>::Get(reader);
  out.reduce_task_records = Serde<std::vector<int64_t>>::Get(reader);
  out.reduce_task_out_records = Serde<std::vector<int64_t>>::Get(reader);
  out.task_attempts = Serde<int64_t>::Get(reader);
  out.failed_attempts = Serde<int64_t>::Get(reader);
  out.node_loss_kills = Serde<int64_t>::Get(reader);
  out.straggler_attempts = Serde<int64_t>::Get(reader);
  out.speculative_backups = Serde<int64_t>::Get(reader);
  out.skipped_bad_records = Serde<int64_t>::Get(reader);
  return out;
}

void PutDriverSpan(ByteBuffer& buffer, const DriverSpan& span) {
  Serde<std::string>::Put(buffer, span.name);
  Serde<double>::Put(buffer, span.seconds);
  Serde<int64_t>::Put(buffer, span.after_job);
}

DriverSpan GetDriverSpan(ByteReader& reader) {
  DriverSpan out;
  out.name = Serde<std::string>::Get(reader);
  out.seconds = Serde<double>::Get(reader);
  out.after_job = Serde<int64_t>::Get(reader);
  return out;
}

}  // namespace dwm::mr
