#ifndef AUDITDB_TESTS_NET_METRICS_JSON_H_
#define AUDITDB_TESTS_NET_METRICS_JSON_H_

// Reading counters out of AuditServer::MetricsJson() in the net tests.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "src/net/server.h"

namespace auditdb {
namespace net {

/// The integer after the first `"name":` in `json`; 0 when absent.
inline uint64_t CounterFromJson(const std::string& json,
                                const std::string& name) {
  auto pos = json.find("\"" + name + "\":");
  if (pos == std::string::npos) return 0;
  pos += name.size() + 3;
  uint64_t value = 0;
  while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(json[pos++] - '0');
  }
  return value;
}

/// Polls the server's metrics until counter `name` reaches `at_least`;
/// false when `budget` runs out first.
inline bool WaitForCounter(const AuditServer& server, const std::string& name,
                           uint64_t at_least,
                           std::chrono::milliseconds budget) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (CounterFromJson(server.MetricsJson(), name) >= at_least) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace net
}  // namespace auditdb

#endif  // AUDITDB_TESTS_NET_METRICS_JSON_H_
