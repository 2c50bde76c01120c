/// subscription_soak — loopback soak harness for the push-subscription
/// path (docs/wire_protocol.md "Alerting"): N subscriber clients attach
/// standing audit expressions to a running auditd, a driver client
/// streams ExecuteQuery traffic that changes every expression's rank,
/// and each subscriber then proves the delivery invariant:
///
///   the delivered sequence numbers, unioned with the ranges announced
///   by GAP frames, exactly cover 1..max_seq — nothing is ever lost
///   without a gap notification.
///
/// The expressions use THRESHOLD ALL over P-Personal, so every driver
/// query touching a fresh pid moves the rank by exactly one fact: with
/// Q queries and no shedding, every subscription receives exactly Q
/// pushes. That determinism turns "did the drain flush parked pushes"
/// into an exact count check.
///
/// Usage: subscription_soak --port P [flags]
///   --host H           auditd host (default 127.0.0.1)
///   --port P           auditd port (required)
///   --subscribers N    subscriber connections (default 4)
///   --queries Q        driver queries, distinct pids p1..pQ (default 64;
///                      the server fixture must hold > Q patients)
///   --slow K           first K subscribers sleep per push (default 0)
///   --slow-sleep-ms M  the sleep (default 25)
///   --slow-rcvbuf B    SO_RCVBUF for slow subscribers (default 2048;
///                      pair with auditd --so-sndbuf so the kernel
///                      cannot absorb the pushes a stalled handler
///                      isn't reading)
///   --expect-gaps      fail unless at least one GAP frame arrived
///   --hold             after driving, print SOAK_READY and wait for the
///                      server to close the connections (graceful-drain
///                      orchestration: the parent SIGTERMs auditd); then
///                      require the full push count — parked pushes must
///                      have been flushed, not dropped
///   --timeout-ms M     overall wait budget (default 30000)
///
/// Exits 0 and prints SOAK_OK on success; 1 with a diagnostic otherwise.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/string_util.h"
#include "src/net/client.h"

using namespace auditdb;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMaxInt = std::numeric_limits<int>::max();

struct Flags {
  std::string host = "127.0.0.1";
  int port = 0;
  size_t subscribers = 4;
  size_t queries = 64;
  size_t slow = 0;
  int slow_sleep_ms = 25;
  int slow_rcvbuf = 2048;
  bool expect_gaps = false;
  bool hold = false;
  int timeout_ms = 30000;
};

/// Everything one subscriber observed, filled from its receiver thread.
struct SubscriberState {
  std::mutex mutex;
  std::set<uint64_t> delivered;            // seqs of progress/alert pushes
  std::vector<std::pair<uint64_t, uint64_t>> gaps;  // [first, first+count)
  uint64_t max_seq = 0;
  size_t alerts = 0;
};

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --port P [flags] (see header)\n", argv0);
  return 2;
}

/// True when delivered ∪ gap ranges covers 1..max_seq with no holes.
/// On failure, *missing names the first uncovered sequence number.
bool Covered(const SubscriberState& state, uint64_t* missing) {
  std::set<uint64_t> have = state.delivered;
  for (const auto& gap : state.gaps) {
    for (uint64_t s = gap.first; s < gap.first + gap.second; ++s) {
      have.insert(s);
    }
  }
  for (uint64_t s = 1; s <= state.max_seq; ++s) {
    if (have.count(s) == 0) {
      *missing = s;
      return false;
    }
  }
  *missing = 0;
  return true;
}

size_t CoveredCount(const SubscriberState& state) {
  size_t n = state.delivered.size();
  for (const auto& gap : state.gaps) n += gap.second;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--expect-gaps") {
      flags.expect_gaps = true;
    } else if (arg == "--hold") {
      flags.hold = true;
    } else if (arg == "--host" && (value = next())) {
      flags.host = value;
    } else if (arg == "--port" && (value = next())) {
      if (!ParseIntInRange(value, 0, 65535, &flags.port)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--subscribers" && (value = next())) {
      if (!ParseUint64(value, &flags.subscribers)) return Usage(argv[0]);
    } else if (arg == "--queries" && (value = next())) {
      if (!ParseUint64(value, &flags.queries)) return Usage(argv[0]);
    } else if (arg == "--slow" && (value = next())) {
      if (!ParseUint64(value, &flags.slow)) return Usage(argv[0]);
    } else if (arg == "--slow-sleep-ms" && (value = next())) {
      if (!ParseIntInRange(value, 0, kMaxInt, &flags.slow_sleep_ms)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--slow-rcvbuf" && (value = next())) {
      if (!ParseIntInRange(value, 0, kMaxInt, &flags.slow_rcvbuf)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--timeout-ms" && (value = next())) {
      if (!ParseIntInRange(value, 0, kMaxInt, &flags.timeout_ms)) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (flags.port <= 0 || flags.subscribers == 0 || flags.queries == 0) {
    return Usage(argv[0]);
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(flags.timeout_ms);

  // Two distinct standing expressions, alternated across subscribers so
  // the soak also exercises server-side expression dedup/refcounting.
  const char* kExpressions[] = {
      "DURING 1/1/1970 to 1/1/1990 THRESHOLD ALL "
      "AUDIT (name) FROM P-Personal",
      "DURING 1/1/1970 to 1/1/1990 THRESHOLD ALL "
      "AUDIT (address) FROM P-Personal",
  };

  std::vector<std::unique_ptr<net::AuditClient>> clients;
  std::vector<std::unique_ptr<SubscriberState>> states;
  for (size_t i = 0; i < flags.subscribers; ++i) {
    net::AuditClientOptions client_options;
    if (i < flags.slow) client_options.so_rcvbuf = flags.slow_rcvbuf;
    auto client = std::make_unique<net::AuditClient>(
        flags.host, static_cast<uint16_t>(flags.port), client_options);
    auto state = std::make_unique<SubscriberState>();
    SubscriberState* raw = state.get();
    const bool slow = i < flags.slow;
    const int sleep_ms = flags.slow_sleep_ms;
    auto handler = [raw, slow, sleep_ms](const net::PushEvent& event) {
      {
        std::lock_guard<std::mutex> lock(raw->mutex);
        if (event.kind == net::PushKind::kGap) {
          raw->gaps.emplace_back(event.seq, event.dropped);
          if (event.dropped > 0) {
            raw->max_seq =
                std::max(raw->max_seq, event.seq + event.dropped - 1);
          }
        } else {
          raw->delivered.insert(event.seq);
          raw->max_seq = std::max(raw->max_seq, event.seq);
          if (event.kind == net::PushKind::kAlert) ++raw->alerts;
        }
      }
      if (slow) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
    };
    auto sub = client->Subscribe(kExpressions[i % 2], Timestamp(1000000),
                                 std::move(handler));
    if (!sub.ok()) {
      std::fprintf(stderr, "subscriber %zu: %s\n", i,
                   sub.status().ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(client));
    states.push_back(std::move(state));
  }
  std::printf("subscribed %zu clients (%zu slow)\n", flags.subscribers,
              flags.slow);

  // The driver: one query per fresh pid, each moving every expression's
  // rank by one fact.
  net::AuditClient driver(flags.host, static_cast<uint16_t>(flags.port));
  for (size_t q = 1; q <= flags.queries; ++q) {
    std::string sql = "SELECT name, address FROM P-Personal WHERE pid = 'p" +
                      std::to_string(q) + "'";
    auto result = driver.ExecuteQuery(
        sql, "soak", "driver", "load", Timestamp(2000000 + (int64_t)q));
    if (!result.ok()) {
      std::fprintf(stderr, "driver query %zu: %s\n", q,
                   result.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("drove %zu queries\n", flags.queries);

  const size_t expected = flags.queries;
  if (flags.hold) {
    // Graceful-drain orchestration: tell the parent we are ready to be
    // drained, then wait for the server to close the streams.
    std::printf("SOAK_READY\n");
    std::fflush(stdout);
    while (Clock::now() < deadline) {
      bool all_closed = true;
      for (auto& client : clients) {
        if (client->StreamStatus().ok()) {
          all_closed = false;
          break;
        }
      }
      if (all_closed) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  } else {
    // Wait until every subscriber accounted for all expected pushes
    // (delivered or gap-covered), or the budget runs out.
    while (Clock::now() < deadline) {
      bool done = true;
      for (auto& state : states) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (CoveredCount(*state) < expected) {
          done = false;
          break;
        }
      }
      if (done) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // Verification. Under --hold the server has drained: parked pushes
  // must have been flushed, so the exact count is required, not just
  // gap-consistency.
  bool saw_gap = false;
  for (size_t i = 0; i < states.size(); ++i) {
    std::lock_guard<std::mutex> lock(states[i]->mutex);
    uint64_t missing = 0;
    if (!Covered(*states[i], &missing)) {
      std::fprintf(stderr,
                   "subscriber %zu: seq %llu lost without gap "
                   "(delivered=%zu gaps=%zu max_seq=%llu)\n",
                   i, (unsigned long long)missing,
                   states[i]->delivered.size(), states[i]->gaps.size(),
                   (unsigned long long)states[i]->max_seq);
      return 1;
    }
    const size_t covered = CoveredCount(*states[i]);
    if (covered != expected) {
      std::fprintf(stderr,
                   "subscriber %zu: covered %zu of %zu expected pushes "
                   "(delivered=%zu gap-covered=%zu)\n",
                   i, covered, expected, states[i]->delivered.size(),
                   covered - states[i]->delivered.size());
      return 1;
    }
    saw_gap = saw_gap || !states[i]->gaps.empty();
  }
  if (flags.expect_gaps && !saw_gap) {
    std::fprintf(stderr,
                 "expected at least one GAP frame, saw none "
                 "(queue too deep or subscribers too fast?)\n");
    return 1;
  }
  std::printf("SOAK_OK subscribers=%zu queries=%zu gaps=%s\n",
              flags.subscribers, flags.queries, saw_gap ? "yes" : "no");
  return 0;
}
