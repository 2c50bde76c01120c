#ifndef AUDITDB_QUERYLOG_QUERY_LOG_H_
#define AUDITDB_QUERYLOG_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/append_log.h"
#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/sql/query_shape.h"

namespace auditdb {

namespace audit {
struct StaticFacts;
}  // namespace audit

/// What every entry of one distinct query shape shares: its parsed
/// statement, and its static facts (audit::StaticFacts) per catalog.
/// The query log creates one, empty, for each new shape it appends; the
/// first reader that needs a part computes it, once, and every later
/// reader on any thread gets the same object. Both parts read only the
/// shape's text and the catalog, and entries with equal shapes lex to
/// equal token streams, so any entry's text yields the same parse.
class ParsedShape {
 public:
  ParsedShape() = default;
  ParsedShape(const ParsedShape&) = delete;
  ParsedShape& operator=(const ParsedShape&) = delete;

  /// The statement of this shape, or null when the shape does not parse.
  /// The first call parses `sql`, which must be the text of an entry with
  /// this shape; later calls return the first call's outcome. The parse
  /// error itself is not kept: its offsets depend on the entry's layout.
  std::shared_ptr<const sql::SelectStatement> Statement(
      const std::string& sql) const;

  /// Whether Statement() has parsed this shape yet.
  bool parsed() const { return parsed_.load(std::memory_order_acquire); }

  /// The static facts of this shape's statement against the catalog
  /// that (`database_id`, `catalog_epoch`) names (DatabaseView), made by
  /// `compute()` on the first call for that catalog. Database id 0 names
  /// no catalog (a hand-built view): `compute()` runs and nothing is
  /// kept. The last kMaxCatalogs catalogs are kept.
  template <typename Compute>
  std::shared_ptr<const audit::StaticFacts> Facts(uint64_t database_id,
                                                  uint64_t catalog_epoch,
                                                  Compute&& compute) const {
    if (database_id == 0) return compute();
    const std::pair<uint64_t, uint64_t> key(database_id, catalog_epoch);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [catalog, facts] : facts_) {
      if (catalog == key) return facts;
    }
    if (facts_.size() == kMaxCatalogs) facts_.erase(facts_.begin());
    facts_.emplace_back(key, compute());
    return facts_.back().second;
  }

  /// Number of catalogs whose facts are kept.
  size_t memoized_catalogs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return facts_.size();
  }

  static constexpr size_t kMaxCatalogs = 4;

 private:
  /// Guards the first parse and facts_.
  mutable std::mutex mu_;
  /// Set, with release order, once stmt_ is final.
  mutable std::atomic<bool> parsed_{false};
  mutable std::shared_ptr<const sql::SelectStatement> stmt_;
  /// (database id, catalog epoch) -> facts, oldest first.
  mutable std::vector<std::pair<std::pair<uint64_t, uint64_t>,
                                std::shared_ptr<const audit::StaticFacts>>>
      facts_;
};

/// One entry of the query log. During normal operation the text of every
/// query processed by the database is logged with annotations: execution
/// time, the submitting user, and the role and purpose under which the
/// access was authorized (the Hippocratic-database access metadata the
/// paper's limiting parameters filter on).
struct LoggedQuery {
  int64_t id = 0;
  std::string sql;
  Timestamp timestamp;
  std::string user;
  std::string role;
  std::string purpose;
  /// Structural fingerprint of `sql`, computed once at append time.
  /// Entries with equal shapes lex to the same token stream, so audits
  /// parse/screen one representative per shape instead of every entry.
  sql::QueryShape shape;
  /// The shared parse of `shape`, set by QueryLog::Append and owned by
  /// the log; null on entries built outside a log.
  const ParsedShape* parsed = nullptr;

  std::string ToString() const;
};

/// Rewrites query text for human/wire display (the policy layer's
/// sensitive-value redaction). Must be pure and thread-safe.
using SqlRedactor = std::function<std::string(const std::string& sql)>;

/// Append-only query log. Entries live in a chunked append-only store:
/// a pinned audit captures size() once and reads entries [0, size)
/// wait-free while the server keeps logging new queries.
class QueryLog {
 public:
  QueryLog() = default;
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends and assigns a log id; returns the id. Computes the entry's
  /// structural shape as part of the append (the only lex this text ever
  /// gets on the audit path) and points the entry at its shape's
  /// ParsedShape; nothing is parsed here.
  int64_t Append(std::string sql, Timestamp ts, std::string user,
                 std::string role, std::string purpose);

  /// Entries published so far; entries below this index are immutable.
  size_t size() const { return entries_.size(); }

  /// Entry `i` (0-based position, not id); requires observed size() > i.
  const LoggedQuery& Entry(size_t i) const { return entries_.At(i); }

  /// The id the next Append will assign (ids are dense from 1), so a
  /// write-ahead log can frame the record before the in-memory append.
  int64_t next_id() const { return static_cast<int64_t>(entries_.size()) + 1; }

  /// Entry by id, or NotFound.
  Result<const LoggedQuery*> Get(int64_t id) const;

  /// Entries whose timestamps fall in the closed interval (the DURING
  /// clause of an audit expression).
  std::vector<const LoggedQuery*> InInterval(const TimeInterval& interval)
      const;

  /// Number of distinct structural shapes among logged entries. The
  /// dedup ratio (size() / distinct_shapes()) is how much of the backlog
  /// the shape-incremental screen avoids re-processing.
  size_t distinct_shapes() const;

  /// Number of distinct shapes whose statement has been parsed.
  size_t parsed_shapes() const;

  /// Number of (shape, catalog) static facts kept by the ParsedShapes.
  size_t memoized_facts() const;

  /// Installs the display redactor. The stored entries keep the
  /// unredacted text — audits must run over what actually executed —
  /// but everything rendered for humans or the wire goes through
  /// Render/RenderSql. Set before the log is shared across threads.
  void SetRedactor(SqlRedactor redactor) { redactor_ = std::move(redactor); }
  bool has_redactor() const { return static_cast<bool>(redactor_); }

  /// The entry's SQL as it may be displayed (redacted when a redactor
  /// is installed).
  std::string RenderSql(const LoggedQuery& entry) const {
    return redactor_ ? redactor_(entry.sql) : entry.sql;
  }

  /// LoggedQuery::ToString with the display redaction applied;
  /// byte-identical to ToString when no redactor is installed.
  std::string Render(const LoggedQuery& entry) const;

 private:
  AppendOnlyLog<LoggedQuery> entries_;
  mutable std::mutex shapes_mu_;
  /// One ParsedShape per distinct shape. Nodes never move, so entries
  /// keep pointers to theirs.
  std::unordered_map<sql::QueryShape, ParsedShape, sql::QueryShapeHash>
      shapes_;
  SqlRedactor redactor_;
};

}  // namespace auditdb

#endif  // AUDITDB_QUERYLOG_QUERY_LOG_H_
