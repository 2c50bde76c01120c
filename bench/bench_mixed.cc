/// Mixed read/write sweep for the MVCC read path: writer threads commit
/// mutations while auditor threads run pinned audits of the canonical
/// expression, in two modes per combination —
///
///   versioned   the shipped design: audits pin snapshots and the
///               decision cache keys on per-table version epochs; no
///               lock is shared with writers and no write evicts
///               anything whose tables it didn't touch;
///   wholesale   the pre-MVCC ablation: one global reader/writer lock
///               (audits shared, writes exclusive) and a change listener
///               that evicts the whole cache on every write. Under
///               that lock no audit spans a write, so the listener's
///               evictions are the only misses writes cause.
///
/// Reported per combo: audits/s, writes/s, and the decision-cache hit
/// rate. Under the versioned scheme the hit rate stays hot as the
/// write rate grows (the writes touch P-Employ, which the audited
/// expression never reads) AND the writers keep committing; wholesale
/// can only have one of the two — a lone auditor lets writes through
/// but every write evicts the cache, while a saturated auditor pool
/// keeps the cache warm only by starving the writers behind the shared
/// lock. Rows land in BENCH_mixed.json ({"benchmarks": [...]}, the
/// shared artifact shape).
///
/// Usage: bench_mixed [audits-per-thread]   (default 10)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/audit/audit_index.h"
#include "src/audit/audit_parser.h"

namespace auditdb {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct MixedRow {
  const char* mode = "";
  size_t writers = 0;
  size_t auditors = 0;
  uint64_t audits = 0;
  uint64_t writes = 0;
  double seconds = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t cow_rows = 0;
  uint64_t cow_bytes = 0;
};

double HitRate(const MixedRow& row) {
  uint64_t total = row.hits + row.misses;
  return total == 0 ? 0.0
                    : static_cast<double>(row.hits) /
                          static_cast<double>(total);
}

/// One (mode, writers, auditors) combination against a fresh world.
/// Auditors run `audits_each` full audits; writers free-run until the
/// auditors finish, so writes/s reflects how much the audit scheme
/// lets them through.
bool RunCombo(bool versioned, size_t writers, size_t auditors,
              int audits_each, MixedRow* row) {
  auto world = MakeWorld(/*patients=*/150, /*queries=*/300);
  audit::DecisionCache cache;
  if (!versioned) {
    // The pre-MVCC server evicted the whole cache on any mutation.
    world->db.AddChangeListener(
        [&cache](const ChangeEvent&) { cache.Invalidate(); });
  }
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  auto expr = audit::ParseAudit(CanonicalAudit(), Ts(1000000));
  if (!expr.ok()) return false;

  audit::AuditOptions options;
  options.cache = &cache;

  std::shared_mutex state_mutex;  // wholesale mode only
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> writer_threads;
  for (size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      int64_t seq = 0;
      // Paced (~2k commits/s per thread) and capped: an unthrottled
      // spin would grow the backlog without bound and the sweep would
      // measure backlog replay, not the locking/caching scheme. The
      // cap only binds in versioned mode — wholesale writers starve
      // behind the audit lock long before reaching it, which is the
      // point of the comparison.
      while (seq < 800 && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        std::unique_lock<std::shared_mutex> lock(state_mutex,
                                                 std::defer_lock);
        if (!versioned) lock.lock();
        auto tid = world->db.Insert(
            "P-Employ",
            {Value::String("w" + std::to_string(w) + "-" +
                           std::to_string(seq)),
             Value::String("Bench"), Value::Int(12000)},
            Ts(5000 + seq));
        if (!tid.ok()) {
          failed.store(true);
          return;
        }
        ++seq;
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto start = Clock::now();
  std::vector<std::thread> audit_threads;
  std::atomic<uint64_t> audits{0};
  for (size_t a = 0; a < auditors; ++a) {
    audit_threads.emplace_back([&] {
      for (int i = 0; i < audits_each; ++i) {
        std::shared_lock<std::shared_mutex> lock(state_mutex,
                                                 std::defer_lock);
        if (!versioned) lock.lock();
        auto report = auditor.Audit(*expr, options);
        if (!report.ok()) {
          failed.store(true);
          return;
        }
        audits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : audit_threads) t.join();
  double seconds = std::chrono::duration<double>(Clock::now() - start)
                       .count();
  stop.store(true);
  for (auto& t : writer_threads) t.join();
  if (failed.load()) return false;

  row->mode = versioned ? "versioned" : "wholesale";
  row->writers = writers;
  row->auditors = auditors;
  row->audits = audits.load();
  row->writes = writes.load();
  row->seconds = seconds;
  row->hits = cache.stats()->cache_hits.load();
  row->misses = cache.stats()->cache_misses.load();
  auto table = world->db.GetTable("P-Employ");
  if (table.ok()) {
    row->cow_rows = (*table)->stats().cow_rows.load();
    row->cow_bytes = (*table)->stats().cow_bytes.load();
  }
  return true;
}

bool WriteMixedJson(const std::deque<MixedRow>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MixedRow& row = rows[i];
    std::fprintf(
        out,
        "    {\"name\": \"BM_Mixed/%s/writers:%zu/auditors:%zu\", "
        "\"mode\": \"%s\", \"writers\": %zu, \"auditors\": %zu, "
        "\"audits\": %llu, \"writes\": %llu, "
        "\"audits_per_second\": %.1f, \"writes_per_second\": %.0f, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"cache_hit_rate\": %.3f, "
        "\"cow_rows\": %llu, \"cow_bytes\": %llu}%s\n",
        row.mode, row.writers, row.auditors, row.mode, row.writers,
        row.auditors, static_cast<unsigned long long>(row.audits),
        static_cast<unsigned long long>(row.writes),
        row.seconds > 0 ? static_cast<double>(row.audits) / row.seconds
                        : 0.0,
        row.seconds > 0 ? static_cast<double>(row.writes) / row.seconds
                        : 0.0,
        static_cast<unsigned long long>(row.hits),
        static_cast<unsigned long long>(row.misses), HitRate(row),
        static_cast<unsigned long long>(row.cow_rows),
        static_cast<unsigned long long>(row.cow_bytes),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

int RunMixed(int audits_each) {
  std::deque<MixedRow> rows;
  std::printf("mode       writers auditors   audits/s    writes/s  "
              "hit-rate  cow-bytes\n");
  for (bool versioned : {true, false}) {
    for (size_t writers : {size_t{0}, size_t{1}, size_t{4}}) {
      for (size_t auditors : {size_t{1}, size_t{4}}) {
        rows.emplace_back();
        MixedRow& row = rows.back();
        if (!RunCombo(versioned, writers, auditors, audits_each, &row)) {
          std::fprintf(stderr, "combo failed: %s w=%zu a=%zu\n",
                       versioned ? "versioned" : "wholesale", writers,
                       auditors);
          return 1;
        }
        std::printf(
            "%-10s %7zu %8zu %10.1f %11.0f %9.3f %10llu\n", row.mode,
            row.writers, row.auditors,
            row.seconds > 0
                ? static_cast<double>(row.audits) / row.seconds
                : 0.0,
            row.seconds > 0
                ? static_cast<double>(row.writes) / row.seconds
                : 0.0,
            HitRate(row),
            static_cast<unsigned long long>(row.cow_bytes));
        std::fflush(stdout);
      }
    }
  }
  // The headline acceptance: with writers present, the versioned scheme
  // must sustain BOTH a hot cache and write throughput at once. The
  // wholesale ablation can fake either one alone — a lone auditor lets
  // writes trickle through (and every one evicts the cache, hit rate
  // ~0), while a full auditor pool holds the shared lock continuously
  // (hit rate looks fine because the starved writers never evict) — so
  // each write combo is compared against its versioned twin on both
  // axes.
  bool ok = true;
  double versioned_hot = 1.0;
  for (const MixedRow& row : rows) {
    if (row.writers == 0 || std::string(row.mode) != "versioned") continue;
    versioned_hot = std::min(versioned_hot, HitRate(row));
    for (const MixedRow& twin : rows) {
      if (std::string(twin.mode) != "wholesale" ||
          twin.writers != row.writers || twin.auditors != row.auditors) {
        continue;
      }
      double row_wps = row.seconds > 0
                           ? static_cast<double>(row.writes) / row.seconds
                           : 0.0;
      double twin_wps =
          twin.seconds > 0 ? static_cast<double>(twin.writes) / twin.seconds
                           : 0.0;
      if (row_wps <= twin_wps) {
        std::fprintf(stderr,
                     "w=%zu a=%zu: versioned writes/s %.0f did not beat "
                     "wholesale %.0f\n",
                     row.writers, row.auditors, row_wps, twin_wps);
        ok = false;
      }
    }
  }
  std::printf("min versioned hit-rate under writes: %.3f "
              "(wholesale pays for any hit rate with starved writers)\n",
              versioned_hot);
  if (!WriteMixedJson(rows, "BENCH_mixed.json")) {
    std::fprintf(stderr, "could not write BENCH_mixed.json\n");
    return 1;
  }
  if (versioned_hot < 0.5) {
    std::fprintf(stderr,
                 "versioned cache went cold under writes (hit rate %.3f)\n",
                 versioned_hot);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace auditdb

int main(int argc, char** argv) {
  int audits_each = 10;
  if (argc > 1) audits_each = std::atoi(argv[1]);
  if (audits_each <= 0) audits_each = 10;
  return auditdb::bench::RunMixed(audits_each);
}
