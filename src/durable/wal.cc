#include "durable/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/file_io.h"
#include "common/json.h"
#include "common/string_util.h"

namespace htapex {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc32
// Sanity cap: a length field beyond this is garbage, not a record — replay
// must never trust corrupt bytes enough to allocate from them.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

void AppendWalFrame(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload));
  out->append(payload);
}

std::string EncodeWalRecord(const KbMutation& record) {
  JsonValue root = JsonValue::MakeObject();
  switch (record.op) {
    case KbMutation::Op::kInsert:
      root.Set("op", JsonValue::String("insert"));
      EncodeKbEntry(record.entry, /*with_ids=*/false, &root);
      break;
    case KbMutation::Op::kCorrect:
      root.Set("op", JsonValue::String("correct"));
      root.Set("id", JsonValue::Int(record.id));
      root.Set("text", JsonValue::String(record.text));
      break;
    case KbMutation::Op::kExpire:
      root.Set("op", JsonValue::String("expire"));
      root.Set("id", JsonValue::Int(record.id));
      break;
  }
  if (record.ordinal != 0) {
    root.Set("ordinal",
             JsonValue::Int(static_cast<int64_t>(record.ordinal)));
  }
  return root.Dump();
}

Result<KbMutation> DecodeWalRecord(std::string_view payload, int dim) {
  JsonValue root;
  HTAPEX_ASSIGN_OR_RETURN(root, JsonValue::Parse(payload));
  KbMutation record;
  std::string op = root.GetString("op");
  if (op == "insert") {
    record.op = KbMutation::Op::kInsert;
    HTAPEX_ASSIGN_OR_RETURN(record.entry, DecodeKbEntry(root, dim));
  } else if (op == "correct" || op == "expire") {
    record.op = op == "correct" ? KbMutation::Op::kCorrect
                                : KbMutation::Op::kExpire;
    int64_t id = root.GetInt("id", -1);
    if (id < 0 || id > INT_MAX) {
      return Status::ParseError("wal record id out of range");
    }
    record.id = static_cast<int>(id);
    record.text = root.GetString("text");
  } else {
    return Status::ParseError("unknown wal op: " + op);
  }
  record.ordinal = static_cast<uint64_t>(root.GetInt("ordinal", 0));
  return record;
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    offset_ = other.offset_;
    synced_offset_ = other.synced_offset_;
    append_ordinal_ = other.append_ordinal_;
    wedged_ = other.wedged_;
    metrics_ = other.metrics_;
    faults_ = other.faults_;
  }
  return *this;
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  DurabilityMetrics* metrics) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError(StrFormat("cannot open wal segment %s: %s",
                                     path.c_str(), std::strerror(errno)));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::IoError("cannot seek wal segment " + path);
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.offset_ = static_cast<uint64_t>(end);
  writer.synced_offset_ = writer.offset_;
  writer.metrics_ = metrics;
  return writer;
}

Status WalWriter::Append(std::string_view payload) {
  if (!is_open()) return Status::IoError("wal writer not open");
  if (wedged_) {
    return Status::IoError("wal writer wedged by injected crash");
  }
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("wal payload exceeds size cap");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendWalFrame(&frame, payload);
  uint64_t ordinal = append_ordinal_++;
  if (faults_ != nullptr &&
      faults_->Draw(kFaultWalAppend, Fnv1a64(payload), ordinal).fired) {
    // Simulated crash mid-append: a prefix of the frame reaches the file —
    // alternating between a cut inside the header and a cut inside the
    // payload, the two torn-tail shapes replay must truncate — then the
    // process is dead. The writer wedges; tests reopen to recover.
    size_t torn = ordinal % 2 == 0
                      ? frame.size() / 2
                      : std::min(frame.size() - 1, kFrameHeaderBytes - 3);
    Status st = WriteAll(fd_, std::string_view(frame).substr(0, torn));
    wedged_ = true;
    if (!st.ok()) return st;
    return Status::IoError("wal.append fault injected (crash mid-append)");
  }
  HTAPEX_RETURN_IF_ERROR(WriteAll(fd_, frame));
  offset_ += frame.size();
  if (metrics_ != nullptr) {
    metrics_->wal_appends.Inc();
    metrics_->wal_bytes.Inc(frame.size());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (!is_open()) return Status::IoError("wal writer not open");
  if (wedged_) {
    return Status::IoError("wal writer wedged by injected crash");
  }
  if (faults_ != nullptr &&
      faults_->Draw(kFaultWalFsync, offset_, append_ordinal_).fired) {
    // Simulated crash before the fsync completed: the unsynced suffix
    // never became durable, so it is discarded here exactly as the disk
    // would have lost it.
    if (::ftruncate(fd_, static_cast<off_t>(synced_offset_)) != 0) {
      wedged_ = true;
      return Status::IoError("wal truncate failed during injected crash");
    }
    wedged_ = true;
    return Status::IoError("wal.fsync fault injected (crash before fsync)");
  }
  if (::fsync(fd_) != 0) {
    return Status::IoError(StrFormat("wal fsync failed: %s",
                                     std::strerror(errno)));
  }
  synced_offset_ = offset_;
  if (metrics_ != nullptr) metrics_->wal_fsyncs.Inc();
  return Status::OK();
}

Status ReplayWalSegment(const std::string& path, int dim,
                        bool truncate_torn_tail,
                        const std::function<Status(const KbMutation&)>& apply,
                        WalReplayStats* stats) {
  return ReplayWalFrames(
      path, truncate_torn_tail,
      [&apply, dim](std::string_view payload) -> Status {
        Result<KbMutation> record = DecodeWalRecord(payload, dim);
        if (!record.ok()) return record.status();
        return apply(*record);
      },
      stats);
}

Status ReplayWalFrames(const std::string& path, bool truncate_torn_tail,
                       const std::function<Status(std::string_view)>& apply,
                       WalReplayStats* stats) {
  Result<std::string> read = ReadFile(path);
  if (read.status().code() == StatusCode::kNotFound) {
    return Status::OK();  // nothing logged yet
  }
  HTAPEX_RETURN_IF_ERROR(read.status());
  const std::string& data = *read;

  size_t pos = 0;
  bool bad_suffix = false;  // torn or corrupt bytes start at `pos`
  while (pos < data.size()) {
    size_t remaining = data.size() - pos;
    if (remaining < kFrameHeaderBytes) {
      stats->truncated += 1;  // torn tail: header itself is incomplete
      bad_suffix = true;
      break;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(data.data() + pos);
    uint32_t length = GetU32(p);
    uint32_t crc = GetU32(p + 4);
    if (length > kMaxPayloadBytes) {
      stats->corrupt += 1;  // garbage length — do not trust it
      bad_suffix = true;
      break;
    }
    if (remaining - kFrameHeaderBytes < length) {
      stats->truncated += 1;  // torn tail: payload incomplete
      bad_suffix = true;
      break;
    }
    std::string_view payload(data.data() + pos + kFrameHeaderBytes, length);
    if (Crc32(payload) != crc) {
      stats->corrupt += 1;
      bad_suffix = true;
      break;
    }
    if (!apply(payload).ok()) {
      // Undecodable-but-checksummed payload, or a record the current
      // state rejects: either way the log diverged — stop, keep the prefix.
      stats->corrupt += 1;
      bad_suffix = true;
      break;
    }
    stats->replayed += 1;
    pos += kFrameHeaderBytes + length;
  }
  if (bad_suffix && truncate_torn_tail) {
    // Cut the segment back to its valid prefix so a recovered writer
    // appends at a clean record boundary and future replays see only
    // intact frames. Only requested for the active (final) segment.
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return Status::IoError("cannot truncate torn wal tail in " + path);
    }
  }
  return Status::OK();
}

}  // namespace htapex
