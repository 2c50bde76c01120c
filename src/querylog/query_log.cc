#include "src/querylog/query_log.h"

namespace auditdb {

std::shared_ptr<const sql::SelectStatement> ParsedShape::Statement(
    const std::string& sql) const {
  if (!parsed()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!parsed_.load(std::memory_order_relaxed)) {
      auto stmt = sql::ParseSelect(sql);
      if (stmt.ok()) {
        stmt_ = std::make_shared<const sql::SelectStatement>(std::move(*stmt));
      }
      parsed_.store(true, std::memory_order_release);
    }
  }
  return stmt_;
}

std::string LoggedQuery::ToString() const {
  return "#" + std::to_string(id) + " [" + timestamp.ToString() + " user=" +
         user + " role=" + role + " purpose=" + purpose + "] " + sql;
}

int64_t QueryLog::Append(std::string sql, Timestamp ts, std::string user,
                         std::string role, std::string purpose) {
  LoggedQuery entry;
  entry.sql = std::move(sql);
  entry.timestamp = ts;
  entry.user = std::move(user);
  entry.role = std::move(role);
  entry.purpose = std::move(purpose);
  entry.shape = sql::ComputeQueryShape(entry.sql);
  std::lock_guard<std::mutex> lock(shapes_mu_);
  entry.parsed = &shapes_[entry.shape];
  // Ids are dense from 1 in append order; assigning under the same
  // lock keeps id == position + 1 even with concurrent appenders.
  int64_t id = static_cast<int64_t>(entries_.size()) + 1;
  entry.id = id;
  entries_.Append(std::move(entry));
  return id;
}

Result<const LoggedQuery*> QueryLog::Get(int64_t id) const {
  if (id < 1 || static_cast<size_t>(id) > entries_.size()) {
    return Status::NotFound("no logged query with id " + std::to_string(id));
  }
  return &entries_.At(static_cast<size_t>(id - 1));
}

std::string QueryLog::Render(const LoggedQuery& entry) const {
  if (!redactor_) return entry.ToString();
  LoggedQuery redacted = entry;
  redacted.sql = redactor_(entry.sql);
  return redacted.ToString();
}

std::vector<const LoggedQuery*> QueryLog::InInterval(
    const TimeInterval& interval) const {
  size_t n = entries_.size();
  std::vector<const LoggedQuery*> out;
  for (size_t i = 0; i < n; ++i) {
    const LoggedQuery& entry = entries_.At(i);
    if (interval.Contains(entry.timestamp)) out.push_back(&entry);
  }
  return out;
}

size_t QueryLog::distinct_shapes() const {
  std::lock_guard<std::mutex> lock(shapes_mu_);
  return shapes_.size();
}

size_t QueryLog::parsed_shapes() const {
  std::lock_guard<std::mutex> lock(shapes_mu_);
  size_t parsed = 0;
  for (const auto& [shape, memo] : shapes_) parsed += memo.parsed();
  return parsed;
}

size_t QueryLog::memoized_facts() const {
  std::lock_guard<std::mutex> lock(shapes_mu_);
  size_t facts = 0;
  for (const auto& [shape, memo] : shapes_) facts += memo.memoized_catalogs();
  return facts;
}

}  // namespace auditdb
