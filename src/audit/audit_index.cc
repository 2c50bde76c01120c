#include "src/audit/audit_index.h"

#include <algorithm>

#include "src/service/metrics.h"

namespace auditdb {
namespace audit {

std::string AuditIndexStats::ToJson() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  return service::JsonObject()
      .Add("lookups", index_lookups.load(kRelaxed))
      .Add("visited", index_visited.load(kRelaxed))
      .Add("skipped", index_skipped.load(kRelaxed))
      .Add("fallbacks", index_fallbacks.load(kRelaxed))
      .Add("cache_hits", cache_hits.load(kRelaxed))
      .Add("cache_misses", cache_misses.load(kRelaxed))
      .str();
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

std::string ProfileKey(const sql::QueryShape& shape, uint64_t state_key) {
  return shape.ToHex() + '\x1f' + std::to_string(state_key);
}

}  // namespace

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

size_t DecisionCache::profile_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profiles_.size();
}

}  // namespace audit
}  // namespace auditdb
