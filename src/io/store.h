#ifndef AUDITDB_IO_STORE_H_
#define AUDITDB_IO_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/io/file.h"
#include "src/querylog/query_log.h"
#include "src/querylog/wal.h"
#include "src/storage/database.h"

namespace auditdb {
namespace io {

/// Crash-safe persistence for the served stores (docs/durability.md).
/// On-disk layout inside the data directory:
///
///   MANIFEST            "snapshot <seq>\n" — the commit pointer,
///                       always replaced atomically
///   snapshot-<seq>.db   database dump (src/io/dump.h text format)
///   snapshot-<seq>.log  query-log dump
///   wal-<seq>.log       CRC-framed WAL extending snapshot <seq>
///                       (src/querylog/wal.h); first record names the
///                       snapshot it belongs to
///   *.tmp               in-flight atomic writes; deleted on open
///
/// Recovery = load the MANIFEST's snapshot, replay the WAL's valid
/// prefix, truncate the torn tail. A checkpoint writes both snapshot
/// files and a fresh WAL *before* atomically repointing MANIFEST, so a
/// crash at any byte of the schedule recovers to either the old or the
/// new checkpoint — never a mix (tests/io/store_test.cc proves this for
/// every fault point).
struct DurableStoreOptions {
  querylog::FsyncPolicy fsync = querylog::FsyncPolicy::kAlways;
  size_t fsync_every_n = 64;
  /// Automatic checkpoint cadence in WAL query records (0 = only
  /// explicit Checkpoint() calls).
  uint64_t checkpoint_every_records = 4096;
};

struct RecoveryInfo {
  bool manifest_found = false;
  uint64_t snapshot_seq = 0;
  /// Log entries restored from the snapshot dump.
  uint64_t snapshot_queries = 0;
  /// WAL query records replayed on top of the snapshot.
  uint64_t recovered_records = 0;
  /// Bytes of torn/corrupt WAL tail dropped at the recovery point.
  uint64_t torn_tail_dropped = 0;
};

/// Not thread-safe for mutations: AppendQuery/Checkpoint must run under
/// the caller's writer lock (the net server's state_mutex). The metric
/// accessors and MetricsJson are safe to call concurrently.
class DurableStore {
 public:
  /// True when `dir` holds a MANIFEST, i.e. Open() will restore state
  /// from disk (callers skip fixture loading in that case).
  static bool HasManifest(Env* env, const std::string& dir);

  /// Opens (creating if missing) the store in `dir`. With a MANIFEST
  /// present, `db` and `log` must be empty; the snapshot is loaded into
  /// them (rows stamped `ts`) and the WAL's valid prefix replayed on
  /// top. Without one, the caller's current db/log contents become
  /// checkpoint 1.
  static Result<std::unique_ptr<DurableStore>> Open(
      Env* env, const std::string& dir, Database* db, QueryLog* log,
      Timestamp ts, DurableStoreOptions options = DurableStoreOptions{});

  ~DurableStore();

  const RecoveryInfo& recovery() const { return recovery_; }

  /// WAL-appends one query-log entry; call *before* the in-memory
  /// append is acked, with `entry.id` set to the id the in-memory log
  /// will assign. Under fsync=always an OK return means the record
  /// survives kill -9. Any IO failure wedges the store (broken()) —
  /// durability can no longer be promised, so nothing further acks.
  Status AppendQuery(const LoggedQuery& entry);

  /// True once the automatic cadence is due.
  bool ShouldCheckpoint() const;

  /// Writes snapshot <seq+1> + fresh WAL, atomically commits MANIFEST,
  /// then prunes the previous checkpoint's files. On failure before the
  /// commit point the store keeps running on the old WAL.
  Status Checkpoint(const Database& db, const QueryLog& log);

  /// Forces the WAL to disk regardless of fsync policy.
  Status Sync();

  /// A sync/write failure occurred; the store refuses further appends
  /// (fsync failure semantics: retrying cannot restore the guarantee).
  bool broken() const { return broken_.load(std::memory_order_relaxed); }

  uint64_t last_checkpoint_seq() const {
    return seq_.load(std::memory_order_relaxed);
  }
  /// Query records / bytes in the current WAL (since last checkpoint).
  uint64_t wal_records() const {
    return wal_records_.load(std::memory_order_relaxed);
  }
  uint64_t wal_bytes() const {
    return wal_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// The Metrics reply's "durability" section (keys:
  /// docs/wire_protocol.md).
  std::string MetricsJson() const;

  const std::string& dir() const { return dir_; }
  Env* env() const { return env_; }
  /// The policy the store was opened with; the replication apply path
  /// reads it to decide whether fsync-before-ack needs an extra Sync().
  const DurableStoreOptions& store_options() const { return options_; }

 private:
  DurableStore(Env* env, std::string dir, DurableStoreOptions options);

  std::string SnapshotPath(uint64_t seq, const char* kind) const;
  std::string WalPath(uint64_t seq) const;
  std::string ManifestPath() const;
  /// Deletes *.tmp files and snapshot/WAL files of other sequences.
  void PruneExcept(uint64_t keep_seq);

  Env* env_;
  std::string dir_;
  DurableStoreOptions options_;
  RecoveryInfo recovery_;
  std::unique_ptr<querylog::WalWriter> wal_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<bool> broken_{false};
};

}  // namespace io
}  // namespace auditdb

#endif  // AUDITDB_IO_STORE_H_
