#include "src/io/store.h"

#include <sstream>

#include "src/common/string_util.h"
#include "src/io/dump.h"
#include "src/service/metrics.h"

namespace auditdb {
namespace io {

namespace {

constexpr char kManifestName[] = "MANIFEST";

/// Parses "snapshot <seq>" (trailing newline tolerated).
Result<uint64_t> ParseManifest(const std::string& text) {
  std::string line = text;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  if (line.rfind("snapshot ", 0) != 0) {
    return Status::ParseError("malformed MANIFEST: " + line);
  }
  uint64_t seq = 0;
  if (!ParseUint64(line.substr(9), &seq) || seq == 0) {
    return Status::ParseError("bad MANIFEST sequence: " + line);
  }
  return seq;
}

/// True when `name` is one of this store's generated files for a
/// sequence other than `keep_seq` ("snapshot-<n>.db", "snapshot-<n>.log",
/// "wal-<n>.log").
bool IsStaleStoreFile(const std::string& name, uint64_t keep_seq) {
  std::string digits;
  if (name.rfind("snapshot-", 0) == 0) {
    auto dot = name.find_last_of('.');
    if (dot == std::string::npos) return false;
    std::string ext = name.substr(dot);
    if (ext != ".db" && ext != ".log") return false;
    digits = name.substr(9, dot - 9);
  } else if (name.rfind("wal-", 0) == 0) {
    if (name.size() < 8 || name.substr(name.size() - 4) != ".log") {
      return false;
    }
    digits = name.substr(4, name.size() - 8);
  } else {
    return false;
  }
  uint64_t seq = 0;
  if (!ParseUint64(digits, &seq)) return false;
  return seq != keep_seq;
}

}  // namespace

DurableStore::DurableStore(Env* env, std::string dir,
                           DurableStoreOptions options)
    : env_(env), dir_(std::move(dir)), options_(options) {}

DurableStore::~DurableStore() {
  if (wal_ != nullptr) wal_->Close();
}

std::string DurableStore::SnapshotPath(uint64_t seq,
                                       const char* kind) const {
  return JoinPath(dir_, "snapshot-" + std::to_string(seq) + "." + kind);
}

std::string DurableStore::WalPath(uint64_t seq) const {
  return JoinPath(dir_, "wal-" + std::to_string(seq) + ".log");
}

std::string DurableStore::ManifestPath() const {
  return JoinPath(dir_, kManifestName);
}

void DurableStore::PruneExcept(uint64_t keep_seq) {
  auto names = env_->ListDir(dir_);
  if (!names.ok()) return;
  for (const auto& name : *names) {
    bool stale =
        (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") ||
        IsStaleStoreFile(name, keep_seq);
    if (stale) env_->DeleteFile(JoinPath(dir_, name));
  }
}

bool DurableStore::HasManifest(Env* env, const std::string& dir) {
  return env->FileExists(JoinPath(dir, kManifestName));
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    Env* env, const std::string& dir, Database* db, QueryLog* log,
    Timestamp ts, DurableStoreOptions options) {
  AUDITDB_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  std::unique_ptr<DurableStore> store(
      new DurableStore(env, dir, options));

  if (!HasManifest(env, dir)) {
    // Fresh store: whatever the caller preloaded (fixtures, dump files)
    // becomes checkpoint 1. Stale leftovers of an interrupted first
    // checkpoint are overwritten; temps are cleared.
    store->PruneExcept(0);
    AUDITDB_RETURN_IF_ERROR(store->Checkpoint(*db, *log));
    store->recovery_.manifest_found = false;
    store->recovery_.snapshot_seq = store->seq_.load();
    return store;
  }

  if (!db->TableNames().empty() || log->size() > 0) {
    return Status::InvalidArgument(
        "data dir " + dir +
        " holds a MANIFEST but the database/query log are not empty; "
        "recovery must start from empty stores");
  }

  AUDITDB_ASSIGN_OR_RETURN(std::string manifest_text,
                           env->ReadFileToString(store->ManifestPath()));
  AUDITDB_ASSIGN_OR_RETURN(uint64_t seq, ParseManifest(manifest_text));

  // The MANIFEST only ever points at fully-synced snapshot files, so a
  // read/parse failure here is real corruption, not a torn write.
  AUDITDB_ASSIGN_OR_RETURN(
      std::string db_dump,
      env->ReadFileToString(store->SnapshotPath(seq, "db")));
  {
    std::istringstream in(db_dump);
    AUDITDB_RETURN_IF_ERROR(ReadDatabaseDump(in, db, ts));
  }
  AUDITDB_ASSIGN_OR_RETURN(
      std::string log_dump,
      env->ReadFileToString(store->SnapshotPath(seq, "log")));
  {
    std::istringstream in(log_dump);
    AUDITDB_RETURN_IF_ERROR(ReadQueryLogDump(in, log));
  }
  store->recovery_.manifest_found = true;
  store->recovery_.snapshot_seq = seq;
  store->recovery_.snapshot_queries = log->size();

  const std::string wal_path = store->WalPath(seq);
  bool saw_checkpoint_record = false;
  querylog::WalReplayStats stats;
  AUDITDB_RETURN_IF_ERROR(querylog::ReplayWal(
      env, wal_path,
      [&](querylog::WalRecordType type, const std::string& payload) {
        if (type == querylog::WalRecordType::kCheckpoint) {
          auto bar = payload.find('|');
          uint64_t rec_seq = 0;
          if (bar == std::string::npos ||
              !ParseUint64(payload.substr(0, bar), &rec_seq)) {
            return Status::Internal("malformed WAL checkpoint record");
          }
          if (rec_seq != seq) {
            return Status::Internal(
                "WAL names snapshot " + std::to_string(rec_seq) +
                " but MANIFEST points at " + std::to_string(seq));
          }
          saw_checkpoint_record = true;
          return Status::Ok();
        }
        AUDITDB_ASSIGN_OR_RETURN(LoggedQuery entry,
                                 querylog::DecodeQueryWalPayload(payload));
        if (entry.id != static_cast<int64_t>(log->size()) + 1) {
          return Status::Internal(
              "WAL id discontinuity: record " + std::to_string(entry.id) +
              " after " + std::to_string(log->size()) + " entries");
        }
        log->Append(std::move(entry.sql), entry.timestamp,
                    std::move(entry.user), std::move(entry.role),
                    std::move(entry.purpose));
        return Status::Ok();
      },
      &stats));
  AUDITDB_RETURN_IF_ERROR(
      querylog::TruncateWalToValidPrefix(env, wal_path, stats));
  store->recovery_.recovered_records =
      stats.records_recovered - (saw_checkpoint_record ? 1 : 0);
  store->recovery_.torn_tail_dropped = stats.torn_tail_bytes;

  store->PruneExcept(seq);
  querylog::WalWriterOptions wal_options;
  wal_options.fsync = options.fsync;
  wal_options.every_n = options.fsync_every_n;
  AUDITDB_ASSIGN_OR_RETURN(
      store->wal_, querylog::WalWriter::Open(env, wal_path, wal_options,
                                             /*truncate=*/false));
  store->seq_.store(seq);
  store->wal_records_.store(store->recovery_.recovered_records);
  store->wal_bytes_.store(stats.valid_prefix_bytes);
  return store;
}

Status DurableStore::AppendQuery(const LoggedQuery& entry) {
  if (broken_.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "durable store is wedged after an IO failure; refusing to ack");
  }
  Status appended = wal_->Append(querylog::WalRecordType::kQuery,
                                 querylog::EncodeQueryWalPayload(entry));
  if (!appended.ok()) {
    // A failed write or fsync leaves durability unknowable; wedge the
    // store so nothing acks against a log that may not persist.
    broken_.store(true, std::memory_order_relaxed);
    return appended;
  }
  wal_records_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_.store(wal_->bytes_written(), std::memory_order_relaxed);
  return Status::Ok();
}

bool DurableStore::ShouldCheckpoint() const {
  return options_.checkpoint_every_records > 0 &&
         wal_records_.load(std::memory_order_relaxed) >=
             options_.checkpoint_every_records;
}

Status DurableStore::Checkpoint(const Database& db, const QueryLog& log) {
  if (broken_.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "durable store is wedged after an IO failure; refusing checkpoint");
  }
  const uint64_t old_seq = seq_.load(std::memory_order_relaxed);
  const uint64_t new_seq = old_seq + 1;

  // Everything before the MANIFEST rename is preparation: a failure (or
  // crash) leaves the old checkpoint authoritative and this store
  // running on its old WAL.
  std::unique_ptr<querylog::WalWriter> new_wal;
  Status prepared = [&]() -> Status {
    std::ostringstream db_out;
    AUDITDB_RETURN_IF_ERROR(WriteDatabaseDump(db, db_out));
    std::ostringstream log_out;
    AUDITDB_RETURN_IF_ERROR(WriteQueryLogDump(log, log_out));
    AUDITDB_RETURN_IF_ERROR(
        AtomicWriteFile(env_, SnapshotPath(new_seq, "db"), db_out.str()));
    AUDITDB_RETURN_IF_ERROR(AtomicWriteFile(
        env_, SnapshotPath(new_seq, "log"), log_out.str()));
    querylog::WalWriterOptions wal_options;
    wal_options.fsync = options_.fsync;
    wal_options.every_n = options_.fsync_every_n;
    AUDITDB_ASSIGN_OR_RETURN(
        new_wal, querylog::WalWriter::Open(env_, WalPath(new_seq),
                                           wal_options, /*truncate=*/true));
    AUDITDB_RETURN_IF_ERROR(
        new_wal->Append(querylog::WalRecordType::kCheckpoint,
                        std::to_string(new_seq) + "|" +
                            std::to_string(log.size())));
    // The checkpoint record must be durable before MANIFEST can point
    // at this WAL, whatever the append fsync policy says.
    return new_wal->Sync();
  }();
  if (!prepared.ok()) {
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    if (new_wal != nullptr) new_wal->Close();
    env_->DeleteFile(SnapshotPath(new_seq, "db"));
    env_->DeleteFile(SnapshotPath(new_seq, "log"));
    env_->DeleteFile(WalPath(new_seq));
    return prepared;
  }

  // Commit: atomically repoint MANIFEST. Done step-by-step so an
  // ambiguous failure (rename visible in-process but its durability
  // unknown) wedges the store instead of guessing.
  const std::string manifest = ManifestPath();
  const std::string manifest_tmp = manifest + ".tmp";
  Status staged = [&]() -> Status {
    AUDITDB_ASSIGN_OR_RETURN(auto file,
                             env_->NewWritableFile(manifest_tmp, true));
    AUDITDB_RETURN_IF_ERROR(
        file->Append("snapshot " + std::to_string(new_seq) + "\n"));
    AUDITDB_RETURN_IF_ERROR(file->Sync());
    AUDITDB_RETURN_IF_ERROR(file->Close());
    return env_->RenameFile(manifest_tmp, manifest);
  }();
  if (!staged.ok()) {
    // Neither the staged temp nor a failed rename replaced MANIFEST;
    // the old checkpoint is still authoritative.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    new_wal->Close();
    env_->DeleteFile(manifest_tmp);
    env_->DeleteFile(SnapshotPath(new_seq, "db"));
    env_->DeleteFile(SnapshotPath(new_seq, "log"));
    env_->DeleteFile(WalPath(new_seq));
    return staged;
  }
  Status dir_synced = env_->SyncDir(dir_);
  if (!dir_synced.ok()) {
    // The rename happened in-process but may not survive a crash:
    // which checkpoint a restart would see is unknowable. Wedge.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    broken_.store(true, std::memory_order_relaxed);
    new_wal->Close();
    return dir_synced;
  }

  if (wal_ != nullptr) wal_->Close();
  wal_ = std::move(new_wal);
  seq_.store(new_seq, std::memory_order_relaxed);
  wal_records_.store(0, std::memory_order_relaxed);
  wal_bytes_.store(wal_->bytes_written(), std::memory_order_relaxed);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  // The old checkpoint's files are garbage now; failures here only
  // leave harmless stale files for the next Open() to prune.
  if (old_seq > 0) {
    env_->DeleteFile(SnapshotPath(old_seq, "db"));
    env_->DeleteFile(SnapshotPath(old_seq, "log"));
    env_->DeleteFile(WalPath(old_seq));
  }
  return Status::Ok();
}

Status DurableStore::Sync() {
  if (broken_.load(std::memory_order_relaxed)) {
    return Status::Internal("durable store is wedged after an IO failure");
  }
  Status synced = wal_->Sync();
  if (!synced.ok()) broken_.store(true, std::memory_order_relaxed);
  return synced;
}

std::string DurableStore::MetricsJson() const {
  return service::JsonObject()
      .Add("wal_bytes", wal_bytes_.load(std::memory_order_relaxed))
      .Add("wal_records", wal_records_.load(std::memory_order_relaxed))
      .Add("recovered_records", recovery_.recovered_records)
      .Add("torn_tail_dropped", recovery_.torn_tail_dropped)
      .Add("last_checkpoint_seq", seq_.load(std::memory_order_relaxed))
      .Add("checkpoints", checkpoints_.load(std::memory_order_relaxed))
      .Add("checkpoint_failures",
           checkpoint_failures_.load(std::memory_order_relaxed))
      .Add("broken", broken())
      .Add("fsync_policy", querylog::FsyncPolicyName(options_.fsync))
      .str();
}

}  // namespace io
}  // namespace auditdb
