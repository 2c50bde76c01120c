/// Experiment T1-T5 / F2-F6: regenerates every table and figure of the
/// paper's worked example and prints it next to the paper's listing, then
/// benchmarks the derivations (target-view computation and granule-set
/// generation for the three canonical suspicion notions).
///
/// Run: build/bench/bench_paper_artifacts

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/audit/audit_parser.h"
#include "src/audit/granule.h"
#include "src/audit/target_view.h"
#include "src/workload/hospital.h"

namespace {

using namespace auditdb;

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

const char* kFig4 =
    "INDISPENSABLE = true AUDIT [*] "
    "FROM P-Personal, P-Health, P-Employ "
    "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
    "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
    "and P-Health.disease='diabetic' and P-Personal.name='Reku'";

const char* kFig5 =
    "INDISPENSABLE = true "
    "AUDIT [name,disease,address,P-Personal.pid,P-Health.pid,"
    "P-Employ.pid,zipcode,salary] "
    "FROM P-Personal, P-Health, P-Employ "
    "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
    "and P-Personal.zipcode=145568 and P-Employ.salary > 10000 "
    "and P-Health.disease='diabetic'";

const char* kFig6 =
    "INDISPENSABLE = true AUDIT (name,disease,address) "
    "FROM P-Personal, P-Health, P-Employ "
    "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
    "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
    "and P-Health.disease='diabetic'";

Database* PaperDb() {
  static Database* db = [] {
    auto* d = new Database();
    if (!workload::BuildPaperDatabase(d, Ts(1)).ok()) std::abort();
    return d;
  }();
  return db;
}

audit::AuditExpression Parse(const std::string& text) {
  auto expr = audit::ParseAudit(text, Ts(1000));
  if (!expr.ok()) std::abort();
  if (!expr->Qualify(PaperDb()->catalog()).ok()) std::abort();
  return std::move(*expr);
}

void PrintArtifacts() {
  std::printf("=== Tables 1-3: the reconstructed example instance ===\n");
  for (const char* name : {"P-Personal", "P-Health", "P-Employ"}) {
    auto table = PaperDb()->GetTable(name);
    if (!table.ok()) std::abort();
    std::printf("-- %s --\n", (*table)->schema().ToString().c_str());
    for (const auto& row : (*table)->rows()) {
      std::printf("  %s:", TidToString(row.tid).c_str());
      for (const auto& v : row.values) {
        std::printf(" %s", v.ToDisplayString().c_str());
      }
      std::printf("\n");
    }
  }

  auto view_of = [&](const char* label, const std::string& text) {
    auto expr = Parse(text);
    auto view = audit::ComputeTargetView(expr, PaperDb()->View(), Ts(1));
    if (!view.ok()) std::abort();
    std::printf("\n=== %s ===\n%s", label, view->ToString().c_str());
    return std::move(*view);
  };

  view_of("Table 4: U for Audit Expression-1 (Fig. 2)",
          "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  view_of("Table 5: U for Audit Expression-2 (Fig. 3)", kFig6);

  auto granules_of = [&](const char* label, const std::string& text) {
    auto expr = Parse(text);
    auto view = audit::ComputeTargetView(expr, PaperDb()->View(), Ts(1));
    if (!view.ok()) std::abort();
    auto g = audit::GranuleEnumerator::Make(*view, audit::BuildSchemes(expr),
                                            expr.threshold);
    if (!g.ok()) std::abort();
    std::printf("\n=== %s ===\nG = {", label);
    bool first = true;
    for (const auto& text_granule : g->RenderDistinct(1000)) {
      std::printf("%s%s", first ? "" : ", ", text_granule.c_str());
      first = false;
    }
    std::printf("}  (|G| = %.0f)\n", g->CountGranules());
  };

  granules_of("Fig. 4: perfect-privacy granule set", kFig4);
  granules_of("Fig. 5: weak-syntactic granule set", kFig5);
  granules_of("Fig. 6: semantic-suspicion granule set", kFig6);

  // Table 6: the structural rules, each re-verified here as an
  // equivalence of normal forms and of scheme sets.
  std::printf("\n=== Table 6: audit-attribute structural rules ===\n");
  struct Rule {
    const char* number;
    const char* lhs;
    const char* rhs;
    const char* description;
  };
  const Rule kRules[] = {
      {"1", "AUDIT [a] FROM T", "AUDIT (a) FROM T",
       "singleton optional = mandatory"},
      {"2", "AUDIT (a,b)(c) FROM T", "AUDIT (a,b,c) FROM T",
       "mandatory sequence merges"},
      {"3", "AUDIT (a,b) FROM T", "AUDIT (b,a) FROM T",
       "set commutativity"},
      {"4", "AUDIT [a][b] FROM T", "AUDIT (a,b) FROM T",
       "two singleton optionals = mandatory pair"},
      {"5", "AUDIT [a,b][c,d] FROM T", "AUDIT [c,d][a,b] FROM T",
       "sequence commutativity"},
      {"6", "AUDIT [(a,b)] FROM T", "AUDIT (a,b) FROM T", "nesting"},
      {"7", "AUDIT (a,b)[c] FROM T", "AUDIT (a,b,c) FROM T",
       "composition"},
  };
  for (const Rule& rule : kRules) {
    auto lhs = audit::ParseAudit(rule.lhs, Ts(1));
    auto rhs = audit::ParseAudit(rule.rhs, Ts(1));
    if (!lhs.ok() || !rhs.ok()) std::abort();
    bool equivalent = lhs->attrs.EquivalentTo(rhs->attrs) &&
                      lhs->attrs.Normalized().ToString() ==
                          rhs->attrs.Normalized().ToString();
    std::printf("  rule %s: %-22s == %-18s (%s)  %s\n", rule.number,
                lhs->attrs.ToString().c_str(),
                rhs->attrs.ToString().c_str(), rule.description,
                equivalent ? "VERIFIED" : "FAILED");
  }
  std::printf(
      "\n(Figs. 1 and 7, the legacy and unified grammars, are exercised "
      "by the\nparser round-trip suite; see docs/grammar.md for the "
      "EBNF.)\n\n");
}

void BM_TargetViewTable4(benchmark::State& state) {
  auto expr =
      Parse("AUDIT name, age, address FROM P-Personal WHERE age < 30");
  auto view = PaperDb()->View();
  for (auto _ : state) {
    auto u = audit::ComputeTargetView(expr, view, Ts(1));
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_TargetViewTable4);

void BM_TargetViewTable5(benchmark::State& state) {
  auto expr = Parse(kFig6);
  auto view = PaperDb()->View();
  for (auto _ : state) {
    auto u = audit::ComputeTargetView(expr, view, Ts(1));
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_TargetViewTable5);

void GranuleBench(benchmark::State& state, const char* text) {
  auto expr = Parse(text);
  auto view = audit::ComputeTargetView(expr, PaperDb()->View(), Ts(1));
  if (!view.ok()) std::abort();
  auto schemes = audit::BuildSchemes(expr);
  for (auto _ : state) {
    auto g = audit::GranuleEnumerator::Make(*view, schemes, expr.threshold);
    if (!g.ok()) std::abort();
    uint64_t n = g->ForEach([](const audit::Granule&) { return true; });
    benchmark::DoNotOptimize(n);
  }
}
void BM_GranulesFig4(benchmark::State& state) { GranuleBench(state, kFig4); }
void BM_GranulesFig5(benchmark::State& state) { GranuleBench(state, kFig5); }
void BM_GranulesFig6(benchmark::State& state) { GranuleBench(state, kFig6); }
BENCHMARK(BM_GranulesFig4);
BENCHMARK(BM_GranulesFig5);
BENCHMARK(BM_GranulesFig6);

}  // namespace

int main(int argc, char** argv) {
  PrintArtifacts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
