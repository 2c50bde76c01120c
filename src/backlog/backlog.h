#ifndef AUDITDB_BACKLOG_BACKLOG_H_
#define AUDITDB_BACKLOG_BACKLOG_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/backlog/snapshot.h"
#include "src/common/append_log.h"
#include "src/common/timestamp.h"
#include "src/storage/database.h"

namespace auditdb {

/// The paper's backlog mechanism: database triggers record every insert,
/// update and delete into per-table backlog relations (b-<table>), from
/// which the state of the database at any past point in time can be
/// recovered. Attach() must run before data is loaded so the event stream
/// is complete.
///
/// Events live in an append-only chunked log: audits read any prefix
/// wait-free while the writer keeps appending. A pinned audit captures
/// event_count() once and passes it as `limit` to the replay entry points
/// below, so the whole audit sees one frozen backlog no matter how many
/// writes land meanwhile.
class Backlog {
 public:
  /// "No limit": read the backlog up to its current published size.
  static constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

  Backlog() = default;
  Backlog(const Backlog&) = delete;
  Backlog& operator=(const Backlog&) = delete;

  /// Hooks this backlog into `db`'s trigger stream and remembers `db` for
  /// schema lookup. `db` must outlive the backlog.
  void Attach(Database* db);

  /// Number of events captured so far. Everything below this index is
  /// immutable and safe to read concurrently with appends.
  size_t event_count() const { return events_.size(); }

  /// Event `i` (capture order); the caller must have observed
  /// event_count() > i.
  const ChangeEvent& EventAt(size_t i) const { return events_.At(i); }

  /// Events for one table, in capture order — the contents of the paper's
  /// b-<table> backlog relation. Only the first min(limit, event_count())
  /// events are considered.
  std::vector<ChangeEvent> EventsForTable(const std::string& table,
                                          size_t limit = kNoLimit) const;

  /// Materializes the paper's b-<table> backlog relation as an ordinary
  /// queryable table named `b-<table>`, with schema
  ///   (op STRING, ts TIMESTAMP, tid INT, <original columns>)
  /// and one row per captured event (the after-image for inserts and
  /// updates, the before-image for deletes). The auditor's queries like
  /// `SELECT zipcode FROM b-Patients` run on it through the normal
  /// executor via View()/DatabaseView.
  Result<std::unique_ptr<Table>> MaterializeBacklogTable(
      const std::string& table, size_t limit = kNoLimit) const;

  /// Reconstructs the state of every table at time `t` (all events with
  /// timestamp <= t applied, in capture order, drawn from the first
  /// min(limit, event_count()) events).
  Result<Snapshot> SnapshotAt(Timestamp t, size_t limit = kNoLimit) const;

  /// Number of captured events with timestamp <= t among the first
  /// min(limit, event_count()). Two timestamps with equal counts see the
  /// identical database state, so this is a cheap snapshot-cache key for
  /// the auditor.
  size_t EventCountAt(Timestamp t, size_t limit = kNoLimit) const;

  /// Timestamps of the first `limit` events, sorted ascending: the
  /// upper_bound of t in them is EventCountAt(t, limit), one binary
  /// search per lookup instead of a scan.
  std::vector<Timestamp> SortedEventTimestamps(size_t limit = kNoLimit) const;

  /// The timestamps at which a distinct database version exists within the
  /// closed interval: the state at `interval.start` plus the state after
  /// each captured change in (start, end]. This is the version set the
  /// audit DATA-INTERVAL clause ranges over.
  std::vector<Timestamp> VersionTimestamps(const TimeInterval& interval,
                                           size_t limit = kNoLimit) const;

 private:
  size_t ClampLimit(size_t limit) const {
    size_t published = events_.size();
    return limit < published ? limit : published;
  }

  Database* db_ = nullptr;
  AppendOnlyLog<ChangeEvent> events_;
};

/// One forward sweep over a pinned backlog prefix: the states SnapshotAt
/// would rebuild one by one, produced by applying each event once.
/// ViewAt(t) equals SnapshotAt(t, limit).View() row for row and tid for
/// tid. The cursor owns one Snapshot and pins a DatabaseView of it per
/// call; copy-on-write TableVersions make each pin cheap, and a table no
/// event touched since the previous pin comes back as the same
/// TableVersion object (with its columnar batch and join-key indexes
/// already built). Pinned views stay valid after the cursor advances or
/// dies.
///
/// SnapshotAt applies {events with timestamp <= t} in capture order; a
/// sweep equals that only if the prefix's timestamps never decrease. The
/// constructor checks that once. On a non-monotone prefix (a dump
/// loaded with client-supplied times can produce one) every ViewAt
/// falls back to a full SnapshotAt replay.
class BacklogCursor {
 public:
  /// Sweeps the first min(limit, backlog.event_count()) events of
  /// `backlog`, which must outlive the cursor.
  explicit BacklogCursor(const Backlog& backlog,
                         size_t limit = Backlog::kNoLimit);

  /// The state at `t`. Times should be non-decreasing across calls: an
  /// earlier time than the previous call restarts the sweep from the
  /// first event. Fails as SnapshotAt does (e.g. unattached backlog).
  Result<DatabaseView> ViewAt(Timestamp t);

 private:
  const Backlog* backlog_;
  size_t limit_;
  bool monotone_ = true;
  /// The swept state; empty until the first ViewAt (or after a restart).
  std::optional<Snapshot> snapshot_;
  /// Next event to apply, and the time of the last ViewAt.
  size_t next_ = 0;
  Timestamp time_;
};

}  // namespace auditdb

#endif  // AUDITDB_BACKLOG_BACKLOG_H_
