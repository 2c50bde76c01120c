/// Experiment P2: granule generation combinatorics.
///
/// The paper observes that a k-column, n-row target view admits on the
/// order of 2^k * 2^n suspicion notions; individual notions still have
/// granule sets of size sum_s C(n_s, k). This bench measures (a) lazy
/// enumeration cost vs |U| and THRESHOLD, (b) materialization
/// (RenderDistinct) vs lazy iteration — the ablation DESIGN.md calls
/// out — and (c) the count-only fast path the suspicion checker uses.
///
/// Run: build/bench/bench_granule

#include <benchmark/benchmark.h>

#include <numeric>
#include <unordered_set>

#include "bench/bench_util.h"
#include "src/audit/granule.h"
#include "src/common/tid_bitmap.h"

namespace {

using namespace auditdb;

struct ViewWorld {
  std::unique_ptr<bench::World> world;
  audit::AuditExpression expr;
  audit::TargetView view;
  std::vector<audit::GranuleScheme> schemes;
};

ViewWorld MakeViewWorld(size_t patients, const std::string& audit_text) {
  ViewWorld vw;
  vw.world = bench::MakeWorld(patients, /*queries=*/1);
  auto expr = audit::ParseAudit(audit_text, bench::Ts(1000000));
  if (!expr.ok() || !expr->Qualify(vw.world->db.catalog()).ok()) {
    std::abort();
  }
  vw.expr = std::move(*expr);
  auto view = audit::ComputeTargetView(vw.expr, vw.world->db.View(),
                                       bench::Ts(1));
  if (!view.ok()) std::abort();
  vw.view = std::move(*view);
  vw.schemes = audit::BuildSchemes(vw.expr);
  return vw;
}

audit::GranuleEnumerator Enumerator(
    const ViewWorld& vw, const std::vector<audit::GranuleScheme>& schemes) {
  auto g = audit::GranuleEnumerator::Make(vw.view, schemes,
                                          vw.expr.threshold);
  if (!g.ok()) std::abort();
  return std::move(*g);
}

/// Lazy enumeration of every granule, |U| sweep at THRESHOLD 1.
void BM_EnumerateThreshold1(benchmark::State& state) {
  const size_t patients = static_cast<size_t>(state.range(0));
  auto vw = MakeViewWorld(patients,
                          "AUDIT [name,disease] FROM P-Personal, P-Health "
                          "WHERE P-Personal.pid = P-Health.pid");
  audit::GranuleEnumerator g = Enumerator(vw, vw.schemes);
  for (auto _ : state) {
    uint64_t n = g.ForEach([](const audit::Granule&) { return true; });
    benchmark::DoNotOptimize(n);
  }
  state.counters["granules"] = g.CountGranules();
}
BENCHMARK(BM_EnumerateThreshold1)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// THRESHOLD-k sweep on a fixed 30-row view: C(30,k) blowup.
void BM_EnumerateThresholdK(benchmark::State& state) {
  const int64_t k = state.range(0);
  auto vw = MakeViewWorld(30, "THRESHOLD " + std::to_string(k) +
                                  " AUDIT (name) FROM P-Personal");
  audit::GranuleEnumerator g = Enumerator(vw, vw.schemes);
  for (auto _ : state) {
    uint64_t n = g.ForEach([](const audit::Granule&) { return true; });
    benchmark::DoNotOptimize(n);
  }
  state.counters["granules"] = g.CountGranules();
}
BENCHMARK(BM_EnumerateThresholdK)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

/// Count-only fast path (what the suspicion checker needs) vs the full
/// enumeration above: the checker never pays C(n,k).
void BM_CountOnly(benchmark::State& state) {
  const int64_t k = state.range(0);
  auto vw = MakeViewWorld(30, "THRESHOLD " + std::to_string(k) +
                                  " AUDIT (name) FROM P-Personal");
  for (auto _ : state) {
    audit::GranuleEnumerator g = Enumerator(vw, vw.schemes);
    double count = g.CountGranules();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_CountOnly)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

/// Materialized (rendered + deduplicated) vs lazy: the ablation.
void BM_MaterializeRendered(benchmark::State& state) {
  const size_t patients = static_cast<size_t>(state.range(0));
  auto vw = MakeViewWorld(patients,
                          "AUDIT [name,disease] FROM P-Personal, P-Health "
                          "WHERE P-Personal.pid = P-Health.pid");
  audit::GranuleEnumerator g = Enumerator(vw, vw.schemes);
  for (auto _ : state) {
    auto rendered = g.RenderDistinct(SIZE_MAX);
    benchmark::DoNotOptimize(rendered);
  }
}
BENCHMARK(BM_MaterializeRendered)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Scheme-count sweep: optional groups multiply schemes.
void BM_SchemeEnumeration(benchmark::State& state) {
  const int64_t attrs = state.range(0);
  // [a1..ak][b1..bk] style: schemes = k * k.
  std::string audit_list = "[name,age";
  if (attrs >= 3) audit_list += ",zipcode";
  if (attrs >= 4) audit_list += ",address";
  audit_list += "],[disease,ward";
  if (attrs >= 3) audit_list += ",pres-drugs";
  if (attrs >= 4) audit_list += ",doc-name";
  audit_list += "]";
  auto vw = MakeViewWorld(200, "AUDIT " + audit_list +
                                   " FROM P-Personal, P-Health "
                                   "WHERE P-Personal.pid = P-Health.pid");
  for (auto _ : state) {
    auto schemes = audit::BuildSchemes(vw.expr);
    audit::GranuleEnumerator g = Enumerator(vw, schemes);
    uint64_t n = g.ForEach([](const audit::Granule&) { return true; });
    benchmark::DoNotOptimize(n);
  }
  state.counters["schemes"] = static_cast<double>(vw.schemes.size());
}
BENCHMARK(BM_SchemeEnumeration)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Experiment P3: the suspicion/candidacy tid-set kernels, bench-local hash
// set baselines vs the compressed bitmaps the audit runs on, at 1M and 10M
// tids.
//
// `dense` = consecutive tids (bulk loads; bitset chunks), sparse = stride-41
// tids (selective predicates; array chunks). The three kernels mirror the
// audit hot paths: building a query's per-table indispensable tids from
// its lineage (AccessProfile::table_tids), per-fact membership probes
// (kPerTable suspicion), and witness-overlap tests
// (SharesIndispensableTuple).
// ---------------------------------------------------------------------------

/// Synthetic indispensable-tid universe: `n` tids, consecutive or strided.
std::vector<int64_t> MakeTids(size_t n, bool dense) {
  std::vector<int64_t> tids(n);
  if (dense) {
    std::iota(tids.begin(), tids.end(), int64_t{1});
  } else {
    for (size_t i = 0; i < n; ++i) tids[i] = static_cast<int64_t>(i) * 41 + 1;
  }
  return tids;
}

// Args: {n, dense, bitmap}. Builds one tid set from 8 witness lists (n/8
// tids each), as AccessProfile::table_tids gathers a table's tids from
// lineage rows.
void BM_IndispensableUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool dense = state.range(1) != 0;
  const bool bitmap = state.range(2) != 0;
  auto tids = MakeTids(n, dense);
  const size_t per_query = n / 8;
  for (auto _ : state) {
    if (bitmap) {
      TidBitmap u;
      for (size_t q = 0; q < 8; ++q) {
        TidBitmap one;
        for (size_t i = q * per_query; i < (q + 1) * per_query; ++i) {
          one.Add(tids[i]);
        }
        u.Or(one);
      }
      benchmark::DoNotOptimize(u.Cardinality());
    } else {
      std::unordered_set<int64_t> u;
      for (size_t q = 0; q < 8; ++q) {
        for (size_t i = q * per_query; i < (q + 1) * per_query; ++i) {
          u.insert(tids[i]);
        }
      }
      benchmark::DoNotOptimize(u.size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_IndispensableUnion)
    ->Args({1000000, 1, 0})
    ->Args({1000000, 1, 1})
    ->Args({1000000, 0, 0})
    ->Args({1000000, 0, 1})
    ->Args({10000000, 1, 0})
    ->Args({10000000, 1, 1})
    ->Args({10000000, 0, 0})
    ->Args({10000000, 0, 1})
    ->Unit(benchmark::kMillisecond);

// Args: {n, dense, bitmap}. Per-fact membership probes against the union
// (the kPerTable suspicion loop); half the probes hit, half miss.
void BM_SuspicionMembership(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool dense = state.range(1) != 0;
  const bool bitmap = state.range(2) != 0;
  auto tids = MakeTids(n, dense);
  TidBitmap bm;
  std::unordered_set<int64_t> set;
  for (int64_t t : tids) {
    if (bitmap) {
      bm.Add(t);
    } else {
      set.insert(t);
    }
  }
  for (auto _ : state) {
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      // Even i probes a member, odd i probes a gap/overshoot.
      const int64_t probe = (i % 2 == 0) ? tids[i] : tids[i] + 1;
      hits += bitmap ? bm.Contains(probe) : set.count(probe) > 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SuspicionMembership)
    ->Args({1000000, 1, 0})
    ->Args({1000000, 1, 1})
    ->Args({10000000, 1, 0})
    ->Args({10000000, 1, 1})
    ->Args({10000000, 0, 0})
    ->Args({10000000, 0, 1})
    ->Unit(benchmark::kMillisecond);

// Args: {n, dense, bitmap}. Witness-overlap test between a query's
// lineage projection and the audit view's tids, overlapping only in the
// last 1% — the SharesIndispensableTuple kernel, worst case
// (the scan must run deep before finding the intersection).
void BM_WitnessIntersect(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool dense = state.range(1) != 0;
  const bool bitmap = state.range(2) != 0;
  auto tids = MakeTids(n, dense);
  const size_t overlap_start = n - n / 100;
  TidBitmap bm_a, bm_b;
  std::unordered_set<int64_t> set_a;
  std::vector<int64_t> vec_b;
  for (size_t i = 0; i < n; ++i) {
    // b holds the mirrored universe plus the shared 1% tail.
    const int64_t other = -tids[i] - 1;
    if (bitmap) {
      bm_a.Add(tids[i]);
      bm_b.Add(i < overlap_start ? other : tids[i]);
    } else {
      set_a.insert(tids[i]);
      vec_b.push_back(i < overlap_start ? other : tids[i]);
    }
  }
  for (auto _ : state) {
    bool shares = false;
    if (bitmap) {
      shares = bm_a.Intersects(bm_b);
    } else {
      for (int64_t t : vec_b) {
        if (set_a.count(t)) {
          shares = true;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(shares);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_WitnessIntersect)
    ->Args({1000000, 1, 0})
    ->Args({1000000, 1, 1})
    ->Args({10000000, 1, 0})
    ->Args({10000000, 1, 1})
    ->Args({10000000, 0, 0})
    ->Args({10000000, 0, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

AUDITDB_BENCH_MAIN(granule);
