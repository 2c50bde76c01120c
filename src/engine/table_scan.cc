#include "src/engine/table_scan.h"

#include <numeric>

namespace auditdb {

TableFilter BuildTableFilter(
    const Batch& batch, const std::vector<ScanStage>& stages,
    const std::optional<std::vector<uint32_t>>& selection) {
  TableFilter f;
  std::vector<uint32_t> cur;
  if (selection.has_value()) {
    cur = *selection;
  } else {
    cur.resize(batch.num_rows);
    std::iota(cur.begin(), cur.end(), 0u);
  }
  f.states_.resize(stages.size());
  f.errors_.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    if (!stages[s].local) continue;  // cross stages run per combined row
    auto outcome = stages[s].program.Run(batch, cur);
    auto& st = f.states_[s];
    st.assign(batch.num_rows, 0);
    for (uint32_t r : outcome.passed) {
      st[r] = static_cast<uint8_t>(TableFilter::RowState::kPass);
    }
    for (auto& [r, status] : outcome.errors) {
      st[r] = static_cast<uint8_t>(TableFilter::RowState::kError);
      f.errors_[s].emplace(r, std::move(status));
      ++f.total_errors_;
    }
    cur = std::move(outcome.passed);
  }
  f.passing_ = std::move(cur);
  return f;
}

}  // namespace auditdb
