#ifndef AUDITDB_PERFBENCH_CALIBRATION_H_
#define AUDITDB_PERFBENCH_CALIBRATION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/stats.h"

namespace perfbench {

/// Calibration time of the reference host: the end-to-end times are
/// reported as if the calibration kernel had taken this long.
inline constexpr double kReferenceCalibrationMs = 20.0;

/// Where the kernel stores its result, so the compiler keeps the work.
inline volatile uint64_t calibration_sink = 0;

/// Runs a fixed kernel (sorting and string-keyed hashing, a few MB of
/// memory, the same work on every call) that never touches the library,
/// and returns its wall time in ms. A shared host's speed drifts by
/// 10–30% over minutes as its neighbours' load changes; every timing of
/// one run drifts with it, and so does this kernel, so the ratio of the
/// two is what a change to the program moves.
inline double CalibrationMillis() {
  Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<uint64_t> keys(200000);
  for (uint64_t& key : keys) key = next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::string, uint64_t> counts;
  for (size_t i = 0; i < 40000; ++i) {
    counts["k" + std::to_string(keys[i * 5] % 30000)] += i;
  }
  uint64_t sum = keys[keys.size() / 2];
  for (const auto& [key, count] : counts) sum += count + key.size();
  calibration_sink = sum;
  return MicrosBetween(t0, Clock::now()) / 1000.0;
}

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_CALIBRATION_H_
