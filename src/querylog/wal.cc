#include "src/querylog/wal.h"

#include <cstring>

#include "src/common/string_util.h"
#include "src/io/checksum.h"
#include "src/io/dump.h"

namespace auditdb {
namespace querylog {

namespace {

/// crc(4) + len(4) + type(1).
constexpr size_t kWalHeaderBytes = 9;
/// Sanity cap on one record's payload: a corrupt length field must not
/// drive a multi-gigabyte allocation. Far above any real record (SQL
/// text plus annotations).
constexpr uint32_t kMaxWalPayloadBytes = 64u << 20;

void PutFixed32(std::string* out, uint32_t v) {
  char buf[4] = {static_cast<char>(v & 0xff),
                 static_cast<char>((v >> 8) & 0xff),
                 static_cast<char>((v >> 16) & 0xff),
                 static_cast<char>((v >> 24) & 0xff)};
  out->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

bool IsKnownWalRecordType(uint8_t byte) {
  return byte == static_cast<uint8_t>(WalRecordType::kQuery) ||
         byte == static_cast<uint8_t>(WalRecordType::kCheckpoint);
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& text,
                                     size_t* every_n) {
  if (text == "always") return FsyncPolicy::kAlways;
  if (text == "never") return FsyncPolicy::kNever;
  if (text == "every_n") return FsyncPolicy::kEveryN;  // default cadence
  uint64_t n = 0;
  if (StartsWith(text, "every_n:") &&
      ParseUint64(std::string_view(text).substr(8), &n) && n > 0) {
    *every_n = static_cast<size_t>(n);
    return FsyncPolicy::kEveryN;
  }
  return Status::InvalidArgument(
      "fsync policy must be always | every_n[:N] | never, got: " + text);
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kEveryN:
      return "every_n";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

std::string EncodeWalRecord(WalRecordType type, std::string_view payload) {
  std::string out;
  out.reserve(kWalHeaderBytes + payload.size());
  std::string body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<char>(type));
  body.append(payload);
  PutFixed32(&out, io::MaskCrc(io::Crc32c(body)));
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  out.append(body);
  return out;
}

Result<bool> DecodeWalRecord(std::string_view data, WalRecordType* type,
                             std::string* payload, size_t* consumed) {
  if (data.size() < kWalHeaderBytes) return false;
  uint32_t stored_crc = io::UnmaskCrc(GetFixed32(data.data()));
  uint32_t payload_len = GetFixed32(data.data() + 4);
  if (payload_len > kMaxWalPayloadBytes) {
    return Status::ParseError("corrupt WAL record length " +
                              std::to_string(payload_len));
  }
  if (data.size() - kWalHeaderBytes < payload_len) return false;
  const char* body = data.data() + 8;  // type byte + payload
  if (io::Crc32c(std::string_view(body, 1 + payload_len)) != stored_crc) {
    return Status::ParseError("WAL record CRC mismatch");
  }
  uint8_t type_byte = static_cast<uint8_t>(body[0]);
  if (!IsKnownWalRecordType(type_byte)) {
    return Status::ParseError("unknown WAL record type byte " +
                              std::to_string(type_byte));
  }
  *type = static_cast<WalRecordType>(type_byte);
  payload->assign(body + 1, payload_len);
  *consumed = kWalHeaderBytes + payload_len;
  return true;
}

std::string EncodeQueryWalPayload(const LoggedQuery& entry) {
  return std::to_string(entry.id) + "|" +
         std::to_string(entry.timestamp.micros()) + "|" +
         io::EscapeField(entry.user) + "|" + io::EscapeField(entry.role) +
         "|" + io::EscapeField(entry.purpose) + "|" +
         io::EscapeField(entry.sql);
}

Result<LoggedQuery> DecodeQueryWalPayload(const std::string& payload) {
  auto fields = io::SplitEscapedFields(payload);
  if (fields.size() != 6) {
    return Status::ParseError("query record needs 6 fields, got " +
                              std::to_string(fields.size()));
  }
  LoggedQuery entry;
  int64_t micros;
  if (!ParseInt64(fields[0], &entry.id)) {
    return Status::ParseError("bad query record id: " + fields[0]);
  }
  if (!ParseInt64(fields[1], &micros)) {
    return Status::ParseError("bad query record timestamp: " + fields[1]);
  }
  entry.timestamp = Timestamp(micros);
  auto user = io::UnescapeField(fields[2]);
  auto role = io::UnescapeField(fields[3]);
  auto purpose = io::UnescapeField(fields[4]);
  auto sql = io::UnescapeField(fields[5]);
  if (!user.ok()) return user.status();
  if (!role.ok()) return role.status();
  if (!purpose.ok()) return purpose.status();
  if (!sql.ok()) return sql.status();
  entry.user = std::move(*user);
  entry.role = std::move(*role);
  entry.purpose = std::move(*purpose);
  entry.sql = std::move(*sql);
  return entry;
}

WalWriter::WalWriter(std::unique_ptr<io::WritableFile> file,
                     WalWriterOptions options, uint64_t existing_bytes)
    : file_(std::move(file)), options_(options),
      bytes_written_(existing_bytes) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(io::Env* env,
                                                   const std::string& path,
                                                   WalWriterOptions options,
                                                   bool truncate) {
  uint64_t existing = 0;
  if (!truncate) {
    auto size = env->GetFileSize(path);
    if (size.ok()) existing = *size;
  }
  AUDITDB_ASSIGN_OR_RETURN(auto file, env->NewWritableFile(path, truncate));
  return std::unique_ptr<WalWriter>(
      new WalWriter(std::move(file), options, existing));
}

Status WalWriter::Append(WalRecordType type, std::string_view payload) {
  if (payload.size() > kMaxWalPayloadBytes) {
    return Status::OutOfRange("WAL record payload of " +
                              std::to_string(payload.size()) +
                              " bytes exceeds the record cap");
  }
  std::string framed = EncodeWalRecord(type, payload);
  AUDITDB_RETURN_IF_ERROR(file_->Append(framed));
  bytes_written_ += framed.size();
  ++records_written_;
  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      return file_->Sync();
    case FsyncPolicy::kEveryN:
      if (++unsynced_records_ >= options_.every_n) {
        unsynced_records_ = 0;
        return file_->Sync();
      }
      return Status::Ok();
    case FsyncPolicy::kNever:
      return Status::Ok();
  }
  return Status::Ok();
}

Status WalWriter::Sync() {
  unsynced_records_ = 0;
  return file_->Sync();
}

Status WalWriter::Close() { return file_->Close(); }

Status ReplayWal(
    io::Env* env, const std::string& path,
    const std::function<Status(WalRecordType, const std::string&)>& callback,
    WalReplayStats* stats) {
  *stats = WalReplayStats{};
  if (!env->FileExists(path)) return Status::Ok();
  AUDITDB_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(path));
  size_t offset = 0;
  while (true) {
    if (data.size() - offset < kWalHeaderBytes) break;  // torn header
    uint32_t stored_crc = io::UnmaskCrc(GetFixed32(data.data() + offset));
    uint32_t payload_len = GetFixed32(data.data() + offset + 4);
    if (payload_len > kMaxWalPayloadBytes ||
        data.size() - offset - kWalHeaderBytes < payload_len) {
      break;  // corrupt length or torn payload
    }
    const char* body = data.data() + offset + 8;  // type byte + payload
    if (io::Crc32c(std::string_view(body, 1 + payload_len)) != stored_crc) {
      break;
    }
    uint8_t type_byte = static_cast<uint8_t>(body[0]);
    if (!IsKnownWalRecordType(type_byte)) break;
    std::string payload(body + 1, payload_len);
    AUDITDB_RETURN_IF_ERROR(
        callback(static_cast<WalRecordType>(type_byte), payload));
    offset += kWalHeaderBytes + payload_len;
    ++stats->records_recovered;
  }
  stats->valid_prefix_bytes = offset;
  stats->torn_tail_bytes = data.size() - offset;
  return Status::Ok();
}

Status TruncateWalToValidPrefix(io::Env* env, const std::string& path,
                                const WalReplayStats& stats) {
  if (stats.torn_tail_bytes == 0 || !env->FileExists(path)) {
    return Status::Ok();
  }
  return env->TruncateFile(path, stats.valid_prefix_bytes);
}

WalCursor::WalCursor(io::Env* env, std::string path)
    : env_(env), path_(std::move(path)) {}

void WalCursor::Seek(const std::string& path, uint64_t offset) {
  path_ = path;
  offset_ = offset;
}

Result<bool> WalCursor::Poll(WalRecordType* type, std::string* payload) {
  std::string framed;
  return Poll(type, payload, &framed);
}

Result<bool> WalCursor::Poll(WalRecordType* type, std::string* payload,
                             std::string* framed) {
  if (!env_->FileExists(path_)) {
    if (offset_ > 0) {
      return Status::OutOfRange("WAL file vanished beneath the cursor: " +
                                path_);
    }
    return false;
  }
  // Re-read each poll instead of holding the file open: the writer may
  // append and TruncateWalToValidPrefix may shrink the tail between
  // polls, and a stale descriptor would read through either.
  AUDITDB_ASSIGN_OR_RETURN(std::string data, env_->ReadFileToString(path_));
  if (data.size() < offset_) {
    return Status::OutOfRange(
        "WAL truncated beneath the cursor (file " +
        std::to_string(data.size()) + " bytes, cursor at " +
        std::to_string(offset_) + "): " + path_);
  }
  std::string_view tail(data.data() + offset_, data.size() - offset_);
  WalRecordType decoded_type;
  std::string decoded_payload;
  size_t consumed = 0;
  auto decoded =
      DecodeWalRecord(tail, &decoded_type, &decoded_payload, &consumed);
  if (!decoded.ok() || !*decoded) {
    // Partial record, or a torn/corrupt tail a concurrent
    // TruncateWalToValidPrefix may still repair — either way the valid
    // prefix ends here for now.
    return false;
  }
  *type = decoded_type;
  *payload = std::move(decoded_payload);
  framed->assign(tail.data(), consumed);
  offset_ += consumed;
  ++records_read_;
  return true;
}

}  // namespace querylog
}  // namespace auditdb
