#include "src/audit/audit_index.h"

#include <algorithm>

namespace auditdb {
namespace audit {

std::string AuditIndexStats::ToJson() const {
  auto field = [](const char* name, uint64_t v) {
    return "\"" + std::string(name) + "\":" + std::to_string(v);
  };
  return "{" +
         field("lookups", index_lookups.load(std::memory_order_relaxed)) +
         "," +
         field("visited", index_visited.load(std::memory_order_relaxed)) +
         "," +
         field("skipped", index_skipped.load(std::memory_order_relaxed)) +
         "," +
         field("fallbacks",
               index_fallbacks.load(std::memory_order_relaxed)) +
         "," + field("cache_hits", cache_hits.load(std::memory_order_relaxed)) +
         "," +
         field("cache_misses", cache_misses.load(std::memory_order_relaxed)) +
         "}";
}

void ExpressionIndex::Add(int id, const AuditExpression& expr) {
  Remove(id);
  std::set<ColumnRef> attrs = expr.attrs.AllAttributes();
  std::vector<ColumnRef> stored(attrs.begin(), attrs.end());
  for (const auto& attr : stored) by_column_[attr].insert(id);
  attrs_by_id_.emplace(id, std::move(stored));
}

void ExpressionIndex::Remove(int id) {
  auto it = attrs_by_id_.find(id);
  if (it == attrs_by_id_.end()) return;
  for (const auto& attr : it->second) {
    auto col = by_column_.find(attr);
    if (col == by_column_.end()) continue;
    col->second.erase(id);
    if (col->second.empty()) by_column_.erase(col);
  }
  attrs_by_id_.erase(it);
}

std::vector<int> ExpressionIndex::Candidates(
    const std::set<ColumnRef>& accessed) const {
  std::set<int> ids;
  for (const auto& col : accessed) {
    auto it = by_column_.find(col);
    if (it == by_column_.end()) continue;
    ids.insert(it->second.begin(), it->second.end());
  }
  return std::vector<int>(ids.begin(), ids.end());
}

namespace {

/// Composite cache keys. Every component is a fixed-width hex/decimal
/// rendering joined with '\x1f', so the concatenations are injective.
std::string ColumnsKey(const sql::QueryShape& shape, bool outputs_only,
                       uint64_t state_key) {
  return shape.ToHex() + '\x1f' + (outputs_only ? "o" : "a") + '\x1f' +
         std::to_string(state_key);
}

std::string DecisionKey(const sql::QueryShape& shape, uint64_t expr_hash,
                        uint64_t state_key, const CandidateOptions& options) {
  return shape.ToHex() + '\x1f' + std::to_string(expr_hash) + '\x1f' +
         std::to_string(state_key) + '\x1f' +
         (options.use_satisfiability ? "s" : "-");
}

std::string ProfileKey(const sql::QueryShape& shape, uint64_t state_key) {
  return shape.ToHex() + '\x1f' + std::to_string(state_key);
}

}  // namespace

Result<DecisionCache::ColumnsEntry> DecisionCache::AccessedColumns(
    const sql::QueryShape& shape, bool outputs_only, uint64_t state_key,
    const sql::SelectStatement& stmt, const Catalog& catalog) {
  std::string key = ColumnsKey(shape, outputs_only, state_key);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = columns_.find(key);
    if (it != columns_.end()) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
  auto computed = StaticAccessedColumns(stmt, catalog, outputs_only);
  ColumnsEntry entry;
  if (computed.ok()) {
    entry.status = Status::Ok();
    entry.columns = std::make_shared<const std::set<ColumnRef>>(
        std::move(*computed));
  } else {
    entry.status = computed.status();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (columns_.size() >= kMaxColumnEntries) columns_.clear();
    columns_.emplace(std::move(key), entry);
  }
  return entry;
}

Result<bool> DecisionCache::BatchCandidate(const sql::QueryShape& shape,
                                           uint64_t expr_hash,
                                           uint64_t state_key,
                                           const sql::SelectStatement& stmt,
                                           const AuditExpression& expr,
                                           const Catalog& catalog,
                                           const CandidateOptions& options) {
  std::string key = DecisionKey(shape, expr_hash, state_key, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = decisions_.find(key);
    if (it != decisions_.end()) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (!it->second.status.ok()) return it->second.status;
      return it->second.candidate;
    }
  }
  stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
  auto computed = IsBatchCandidate(stmt, expr, catalog, options);
  Decision decision;
  if (computed.ok()) {
    decision.candidate = *computed;
  } else {
    decision.status = computed.status();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (decisions_.size() >= kMaxDecisionEntries) {
      decisions_.clear();
    }
    decisions_.emplace(std::move(key), std::move(decision));
  }
  return computed;
}

std::shared_ptr<const AccessProfile> DecisionCache::LookupProfile(
    const sql::QueryShape& shape, uint64_t state_key) const {
  std::string key = ProfileKey(shape, state_key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = profiles_.find(key);
  if (it == profiles_.end()) {
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void DecisionCache::StoreProfile(const sql::QueryShape& shape,
                                 uint64_t state_key,
                                 std::shared_ptr<const AccessProfile> profile) {
  std::string key = ProfileKey(shape, state_key);
  std::lock_guard<std::mutex> lock(mutex_);
  if (profiles_.size() >= kMaxProfileEntries) profiles_.clear();
  profiles_.emplace(std::move(key), std::move(profile));
}

size_t DecisionCache::column_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return columns_.size();
}

size_t DecisionCache::decision_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_.size();
}

size_t DecisionCache::profile_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profiles_.size();
}

Result<bool> CachedBatchCandidate(DecisionCache* cache,
                                  const sql::QueryShape& shape,
                                  uint64_t expr_hash,
                                  uint64_t state_key,
                                  const sql::SelectStatement& stmt,
                                  const AuditExpression& expr,
                                  const Catalog& catalog,
                                  const CandidateOptions& options) {
  if (cache == nullptr) {
    return IsBatchCandidate(stmt, expr, catalog, options);
  }
  return cache->BatchCandidate(shape, expr_hash, state_key, stmt, expr,
                               catalog, options);
}

}  // namespace audit
}  // namespace auditdb
