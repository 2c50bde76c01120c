#include "src/types/column_vector.h"

namespace auditdb {

std::vector<size_t> NonNullRows(const Batch& batch,
                                const std::vector<size_t>& columns) {
  std::vector<size_t> out;
  out.reserve(batch.num_rows);
  // Fast path: none of the screened columns has a NULL anywhere.
  bool any_nulls = false;
  for (size_t c : columns) {
    if (batch.columns[c].has_nulls()) {
      any_nulls = true;
      break;
    }
  }
  if (!any_nulls) {
    for (size_t i = 0; i < batch.num_rows; ++i) out.push_back(i);
    return out;
  }
  for (size_t i = 0; i < batch.num_rows; ++i) {
    bool valid = true;
    for (size_t c : columns) {
      if (batch.columns[c].IsNull(i)) {
        valid = false;
        break;
      }
    }
    if (valid) out.push_back(i);
  }
  return out;
}

}  // namespace auditdb
