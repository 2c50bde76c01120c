/// Mixed read/write sweep for the MVCC read path: writer threads commit
/// mutations into P-Employ while auditor threads run pinned audits of
/// the canonical expression, which never reads P-Employ. Audits pin
/// snapshots, and the static facts the query log memoizes per shape are
/// keyed on the catalog, which row writes never move, so no lock is
/// shared with writers and no write evicts a static decision.
///
/// Reported per (writers, auditors) combo: audits/s, writes/s, and the
/// static facts kept per parsed shape after all the combo's audits. The
/// acceptance: under every write combo no shape's facts are computed
/// twice (at most 1.0 per shape; a shape that fails to parse has none)
/// AND the writers keep committing (EXPERIMENTS.md P12 compares this
/// with a global lock and evict-on-every-write). Rows land in
/// BENCH_mixed.json ({"benchmarks": [...]}, the shared artifact shape).
///
/// Usage: bench_mixed [audits-per-thread]   (default 10)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/audit/audit_parser.h"

namespace auditdb {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct MixedRow {
  size_t writers = 0;
  size_t auditors = 0;
  uint64_t audits = 0;
  uint64_t writes = 0;
  double seconds = 0;
  uint64_t parsed_shapes = 0;
  uint64_t memoized_facts = 0;
  uint64_t cow_rows = 0;
  uint64_t cow_bytes = 0;
};

double FactsPerShape(const MixedRow& row) {
  return row.parsed_shapes == 0
             ? 0.0
             : static_cast<double>(row.memoized_facts) /
                   static_cast<double>(row.parsed_shapes);
}

double PerSecond(uint64_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
}

/// One (writers, auditors) combination against a fresh world. Auditors
/// run `audits_each` full audits; writers free-run until the auditors
/// finish, so writes/s reflects how much the audits let them through.
bool RunCombo(size_t writers, size_t auditors, int audits_each,
              MixedRow* row) {
  auto world = MakeWorld(/*patients=*/150, /*queries=*/300);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  auto expr = audit::ParseAudit(CanonicalAudit(), Ts(1000000));
  if (!expr.ok()) return false;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> writer_threads;
  for (size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      int64_t seq = 0;
      // Paced (~2k commits/s per thread) and capped: an unthrottled
      // spin would grow the backlog without bound and the sweep would
      // measure backlog replay, not the caching scheme.
      while (seq < 800 && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
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
        auto report = auditor.Audit(*expr);
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

  row->writers = writers;
  row->auditors = auditors;
  row->audits = audits.load();
  row->writes = writes.load();
  row->seconds = seconds;
  row->parsed_shapes = world->log.parsed_shapes();
  row->memoized_facts = world->log.memoized_facts();
  auto table = world->db.GetTable("P-Employ");
  if (table.ok()) {
    row->cow_rows = (*table)->stats().cow_rows.load();
    row->cow_bytes = (*table)->stats().cow_bytes.load();
  }
  return true;
}

bool WriteMixedJson(const std::deque<MixedRow>& rows, const char* path) {
  service::JsonArray json;
  for (const MixedRow& row : rows) {
    const std::string name = "BM_Mixed/writers:" +
                             std::to_string(row.writers) +
                             "/auditors:" + std::to_string(row.auditors);
    json.Add(service::JsonObject()
                 .Add("name", name)
                 .Add("writers", row.writers)
                 .Add("auditors", row.auditors)
                 .Add("audits", row.audits)
                 .Add("writes", row.writes)
                 .Add("audits_per_second",
                      PerSecond(row.audits, row.seconds), 1)
                 .Add("writes_per_second",
                      PerSecond(row.writes, row.seconds), 0)
                 .Add("parsed_shapes", row.parsed_shapes)
                 .Add("memoized_facts", row.memoized_facts)
                 .Add("facts_per_shape", FactsPerShape(row), 3)
                 .Add("cow_rows", row.cow_rows)
                 .Add("cow_bytes", row.cow_bytes)
                 .str());
  }
  return bench::WriteBenchmarksJson(json, path);
}

int RunMixed(int audits_each) {
  std::deque<MixedRow> rows;
  std::printf("writers auditors   audits/s    writes/s  facts/shape  "
              "cow-bytes\n");
  for (size_t writers : {size_t{0}, size_t{1}, size_t{4}}) {
    for (size_t auditors : {size_t{1}, size_t{4}}) {
      rows.emplace_back();
      MixedRow& row = rows.back();
      if (!RunCombo(writers, auditors, audits_each, &row)) {
        std::fprintf(stderr, "combo failed: w=%zu a=%zu\n", writers,
                     auditors);
        return 1;
      }
      std::printf("%7zu %8zu %10.1f %11.0f %12.3f %10llu\n", row.writers,
                  row.auditors, PerSecond(row.audits, row.seconds),
                  PerSecond(row.writes, row.seconds), FactsPerShape(row),
                  static_cast<unsigned long long>(row.cow_bytes));
      std::fflush(stdout);
    }
  }
  // The acceptance: with writers present, every shape's static facts
  // are computed once across all audits AND the writers keep
  // committing — row writes change no key the audits look up.
  bool ok = true;
  double worst = 0.0;
  for (const MixedRow& row : rows) {
    if (row.writers == 0) continue;
    worst = std::max(worst, FactsPerShape(row));
    if (row.writes == 0) {
      std::fprintf(stderr, "w=%zu a=%zu: no write committed\n",
                   row.writers, row.auditors);
      ok = false;
    }
  }
  std::printf("max facts/shape under writes: %.3f\n", worst);
  if (!WriteMixedJson(rows, "BENCH_mixed.json")) {
    std::fprintf(stderr, "could not write BENCH_mixed.json\n");
    return 1;
  }
  if (worst > 1.0) {
    std::fprintf(stderr,
                 "static facts recomputed under writes (%.3f per shape)\n",
                 worst);
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
