#ifndef AUDITDB_QUERYLOG_WAL_H_
#define AUDITDB_QUERYLOG_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/io/file.h"
#include "src/querylog/query_log.h"

namespace auditdb {
namespace querylog {

/// Write-ahead log of query-log records (docs/durability.md). The WAL
/// is a flat file of length-prefixed, CRC32C-framed records:
///
///   offset  size  field
///   0       4     masked CRC32C of [type byte + payload], little-endian
///   4       4     payload length, little-endian uint32
///   8       1     record type byte
///   9       n     payload
///
/// Appends are ack'd according to the fsync policy; the reader replays
/// the longest valid prefix and reports how much torn/corrupt tail it
/// dropped. Any record whose CRC, type, or length fails validation ends
/// the replay — nothing after the first bad record is trusted, so a
/// torn tail can never smuggle a corrupt record into the store.

enum class WalRecordType : uint8_t {
  /// One appended query-log entry. Payload is the dump format's QUERY
  /// line body (io::EscapeField-escaped pipe-separated fields):
  /// `id|timestamp_micros|user|role|purpose|sql`.
  kQuery = 'Q',
  /// First record of every WAL: names the snapshot this log extends.
  /// Payload: `checkpoint_seq|last_log_id`.
  kCheckpoint = 'C',
};

bool IsKnownWalRecordType(uint8_t byte);

/// When an Append() is made crash-durable:
///   kAlways  fdatasync before returning (an OK Append survives kill -9)
///   kEveryN  fdatasync every N appends (bounded loss window)
///   kNever   leave it to the OS (fastest, crash loses the page cache)
enum class FsyncPolicy { kAlways, kEveryN, kNever };

/// Parses "always", "every_n:N" / "everyN" forms, "never".
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& text,
                                     size_t* every_n);
const char* FsyncPolicyName(FsyncPolicy policy);

struct WalWriterOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// Sync cadence under kEveryN.
  size_t every_n = 64;
};

/// Encodes one framed record (exposed for tests and the bench).
std::string EncodeWalRecord(WalRecordType type, std::string_view payload);

/// Validates and decodes the first framed record in `data` (the exact
/// inverse of EncodeWalRecord — the replication stream ships raw framed
/// bytes and the follower re-validates them with this).
///   Ok(true)   one record decoded; *consumed bytes were used
///   Ok(false)  `data` holds only a partial record — feed more
///   error      CRC/type/length validation failed (corrupt record)
Result<bool> DecodeWalRecord(std::string_view data, WalRecordType* type,
                             std::string* payload, size_t* consumed);

/// The one codec for query records: the kQuery WAL payload, the body of
/// a dump's QUERY line, and the replication stream's query record —
/// `id|micros|user|role|purpose|sql`, text fields escaped. Decoding
/// rejects a malformed id or timestamp with ParseError.
std::string EncodeQueryWalPayload(const LoggedQuery& entry);
Result<LoggedQuery> DecodeQueryWalPayload(const std::string& payload);

/// Appender over one WAL file. Not thread-safe; the durable store
/// serializes access under its writer lock.
class WalWriter {
 public:
  /// `truncate` starts a fresh log; otherwise appends after a recovered
  /// valid prefix (the caller must have truncated any torn tail first).
  static Result<std::unique_ptr<WalWriter>> Open(
      io::Env* env, const std::string& path, WalWriterOptions options,
      bool truncate = true);

  /// Frames, appends, and syncs per policy. On OK under kAlways the
  /// record is crash-durable.
  Status Append(WalRecordType type, std::string_view payload);
  /// Forces an fdatasync regardless of policy.
  Status Sync();
  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t records_written() const { return records_written_; }

 private:
  WalWriter(std::unique_ptr<io::WritableFile> file, WalWriterOptions options,
            uint64_t existing_bytes);

  std::unique_ptr<io::WritableFile> file_;
  WalWriterOptions options_;
  uint64_t bytes_written_;  // includes a recovered prefix on reopen
  uint64_t records_written_ = 0;
  size_t unsynced_records_ = 0;
};

struct WalReplayStats {
  /// Valid records delivered to the callback.
  uint64_t records_recovered = 0;
  /// Bytes of torn/corrupt tail after the valid prefix.
  uint64_t torn_tail_bytes = 0;
  /// Byte length of the valid prefix (the safe truncation point).
  uint64_t valid_prefix_bytes = 0;
  bool tail_truncated() const { return torn_tail_bytes > 0; }
};

/// Replays every valid record in order into `callback`, stopping at the
/// first torn or corrupt record (everything after it is dropped and
/// counted in `stats`). A missing file replays zero records. A non-OK
/// callback status aborts the replay and is returned as-is.
Status ReplayWal(
    io::Env* env, const std::string& path,
    const std::function<Status(WalRecordType, const std::string&)>& callback,
    WalReplayStats* stats);

/// Truncates the WAL file to its valid prefix so a writer can append
/// after recovery without leaving garbage mid-file. No-op when the
/// tail is clean or the file is missing.
Status TruncateWalToValidPrefix(io::Env* env, const std::string& path,
                                const WalReplayStats& stats);

/// A tailing reader over a live WAL file: the shipping side of
/// replication follows the writer record-by-record without ever holding
/// the file open (each Poll re-reads from the cursor offset, so it can
/// race both an appender and a TruncateWalToValidPrefix).
///
/// Poll() returns:
///   Ok(true)   one CRC-valid record decoded; the cursor advanced
///   Ok(false)  no complete valid record at the cursor yet (clean EOF,
///              or a torn/corrupt tail that a concurrent truncate may
///              still repair) — poll again later
///   OutOfRange the file shrank below the cursor (truncated prefix or
///              rotated WAL): the reader's position is gone and it must
///              re-sync from a fresh position
///   other      I/O failure
class WalCursor {
 public:
  WalCursor(io::Env* env, std::string path);

  Result<bool> Poll(WalRecordType* type, std::string* payload);
  /// Same, but also hands back the raw framed bytes (what replication
  /// ships).
  Result<bool> Poll(WalRecordType* type, std::string* payload,
                    std::string* framed);

  uint64_t offset() const { return offset_; }
  uint64_t records_read() const { return records_read_; }
  /// Repositions (e.g. after re-sync onto a rotated WAL).
  void Seek(const std::string& path, uint64_t offset);

 private:
  io::Env* env_;
  std::string path_;
  uint64_t offset_ = 0;
  uint64_t records_read_ = 0;
};

}  // namespace querylog
}  // namespace auditdb

#endif  // AUDITDB_QUERYLOG_WAL_H_
