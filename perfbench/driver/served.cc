/// Served phases: an in-process AuditServer per stack on loopback, with
/// durable stores in a scratch directory (fsync=never), driven by at
/// most three client threads at a time.
///
///   mixed stack   two audit connections (closed loop) + one writer
///                 (open loop, low rate), no subscribers;
///   write stack   one subscriber connection holding the standing
///                 expressions + two writers, first open loop at a fixed
///                 rate, then closed loop for capacity.
///
/// Each run interleaves these phases in rounds with the offline audits;
/// samples accumulate across rounds and are checked and reduced once at
/// the end.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "driver/bench.h"
#include "src/audit/audit_parser.h"
#include "src/audit/auditor.h"
#include "src/audit/online.h"
#include "src/engine/lineage.h"
#include "src/io/file.h"
#include "src/io/store.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/querylog/wal.h"
#include "src/service/audit_service.h"
#include "src/sql/parser.h"

namespace perfbench {

namespace {

/// One served stack: its own world, durable store, audit service and
/// server.
struct Stack {
  std::unique_ptr<World> world;
  std::unique_ptr<io::DurableStore> store;
  std::unique_ptr<service::AuditService> service;
  std::unique_ptr<net::AuditServer> server;
  /// Served writes sent so far (each gets the next timestamp).
  std::atomic<uint64_t> next_stamp{0};
  size_t preload = 0;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
  }
};

Status StartStack(Stack* stack, const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(dir, ignored);
  io::DurableStoreOptions store_options;
  store_options.fsync = querylog::FsyncPolicy::kNever;
  // Checkpoints always fsync; keep them out of the measured phases.
  store_options.checkpoint_every_records = 0;
  auto store = io::DurableStore::Open(io::Env::Default(), dir,
                                      &stack->world->db, &stack->world->log,
                                      Timestamp(1000000), store_options);
  if (!store.ok()) return store.status();
  stack->store = std::move(*store);
  stack->preload = stack->world->log.size();
  stack->service = std::make_unique<service::AuditService>(
      &stack->world->db, &stack->world->backlog, &stack->world->log);
  net::AuditServerOptions server_options;
  server_options.durable_store = stack->store.get();
  stack->server = std::make_unique<net::AuditServer>(
      stack->service.get(), &stack->world->db, &stack->world->backlog,
      &stack->world->log, server_options);
  return stack->server->Start();
}

std::unique_ptr<net::AuditClient> Connect(const Stack& stack) {
  return std::make_unique<net::AuditClient>(stack.server->host(),
                                            stack.server->port());
}

/// (Re)opens each connection. Every phase calls it first: a connection
/// left idle through the other phases may have been evicted by the
/// server's idle timeout, and a write on an evicted connection fails.
bool Reconnect(const std::vector<std::unique_ptr<net::AuditClient>>& clients,
               Report* report) {
  for (const auto& client : clients) {
    client->Close();
    Status connected = client->Connect();
    if (!connected.ok()) {
      report->Mismatch("connect: " + connected.ToString());
      return false;
    }
  }
  return true;
}

/// Reports the first few failed operations on stderr (every failure is
/// counted in the result line either way).
void LogFailure(const std::string& what, const Status& status) {
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1) < 5) {
    std::fprintf(stderr, "%s failed: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
}

/// The preload-only form of a canonical report taken after served
/// writes (all stamped after the canonical DURING window) grew the log:
/// the writes appear as bare not-admitted verdicts and in `logged=`.
/// Empty when a grown-log verdict line carries any flag.
std::string WithoutServedWrites(const std::string& canonical,
                                size_t preload) {
  std::string out;
  size_t pos = 0;
  while (pos < canonical.size()) {
    size_t end = canonical.find('\n', pos);
    if (end == std::string::npos) end = canonical.size() - 1;
    std::string line = canonical.substr(pos, end - pos + 1);
    pos = end + 1;
    if (line.rfind("counts: logged=", 0) == 0) {
      size_t digits_end = line.find(' ', 15);
      line = "counts: logged=" + std::to_string(preload) +
             line.substr(digits_end);
    } else if (line.rfind("verdict ", 0) == 0) {
      size_t colon = line.find(':');
      size_t id = std::stoull(line.substr(8, colon - 8));
      if (id > preload) {
        if (line.size() != colon + 2) return "";
        continue;
      }
    }
    out += line;
  }
  return out;
}

/// The subscriber's view of every push it received.
struct PushLog {
  std::mutex mutex;
  /// (triggering log id, arrival) of every progress / alert push.
  std::vector<std::pair<int64_t, Clock::time_point>> arrivals;
  /// Last (rank, fired) pushed per subscription id.
  std::map<int64_t, std::pair<double, bool>> last;
  std::map<int64_t, uint64_t> last_seq;
  uint64_t gap_frames = 0;
  uint64_t out_of_order = 0;
};

/// One acked write: its log id, the op it sent, and when (and in which
/// round) it was sent.
struct Acked {
  int64_t log_id = 0;
  const WriteOp* op = nullptr;
  Clock::time_point dispatched;
  int round = 0;
};

Result<net::AuditClient::RemoteQueryResult> SendWrite(
    net::AuditClient* client, Stack* stack, const WriteOp& op) {
  uint64_t stamp = stack->next_stamp.fetch_add(1);
  return client->ExecuteQuery(op.sql, op.user, op.role, op.purpose,
                              ServedStamp(stamp));
}

/// Open-loop writers: op `first + i` is due at start + i / rate and is
/// sent by writer i % clients.size() as soon as it is due (at once if
/// that writer is late). Latency runs from the due time.
struct OpenLoopResult {
  Samples latency_us;
  Samples lag_us;
  std::vector<Acked> acked;
  uint64_t failed = 0;
  size_t sent = 0;
};

OpenLoopResult RunOpenLoop(
    const std::vector<std::unique_ptr<net::AuditClient>>& clients,
    Stack* stack, const std::vector<WriteOp>& ops, size_t first,
    double rate, double seconds, int round) {
  size_t total = std::min(ops.size() - std::min(first, ops.size()),
                          static_cast<size_t>(rate * seconds));
  std::vector<OpenLoopResult> per(clients.size());
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < clients.size(); ++w) {
    threads.emplace_back([&, w] {
      OpenLoopResult& mine = per[w];
      for (size_t i = w; i < total; i += clients.size()) {
        const WriteOp& op = ops[first + i];
        Clock::time_point due = start + ToDuration(i / rate);
        std::this_thread::sleep_until(due);
        Clock::time_point dispatched = Clock::now();
        auto result = SendWrite(clients[w].get(), stack, op);
        Clock::time_point done = Clock::now();
        mine.latency_us.Add(MicrosBetween(due, done));
        mine.lag_us.Add(MicrosBetween(due, dispatched));
        ++mine.sent;
        if (!result.ok()) {
          LogFailure(op.sql, result.status());
          ++mine.failed;
          continue;
        }
        mine.acked.push_back(Acked{result->log_id, &op, dispatched, round});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  OpenLoopResult out;
  for (auto& r : per) {
    out.latency_us.Append(r.latency_us);
    out.lag_us.Append(r.lag_us);
    out.acked.insert(out.acked.end(), r.acked.begin(), r.acked.end());
    out.failed += r.failed;
    out.sent += r.sent;
  }
  return out;
}

/// Waits until no push has arrived for `quiet`, at most `limit`.
void WaitForPushQuiet(PushLog* log, std::chrono::milliseconds quiet,
                      std::chrono::seconds limit) {
  Clock::time_point give_up = Clock::now() + limit;
  size_t seen = static_cast<size_t>(-1);
  while (Clock::now() < give_up) {
    size_t now_seen;
    {
      std::lock_guard<std::mutex> lock(log->mutex);
      now_seen = log->arrivals.size() + log->gap_frames;
    }
    if (now_seen == seen) return;
    seen = now_seen;
    std::this_thread::sleep_for(quiet);
  }
}

/// Pulls `"key":<number>` out of a metrics JSON blob; -1 if absent.
double JsonNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace

class ServedRun {
 public:
  ServedOptions options;
  std::string reference;
  Stack mixed;
  Stack writes;
  StandingSet standing;
  /// Declared before the subscriber: its receiver thread writes here.
  PushLog pushes;
  std::unique_ptr<net::AuditClient> subscriber;
  /// subscription id -> standing-expression index; per index, the
  /// server-side expression id and the state at subscription time.
  std::map<int64_t, size_t> sub_index;
  std::vector<int> expression_ids;
  std::vector<std::pair<double, bool>> initial_state;
  std::vector<std::unique_ptr<net::AuditClient>> writers;
  std::vector<std::unique_ptr<net::AuditClient>> auditors;
  std::vector<std::unique_ptr<net::AuditClient>> mixed_writers;

  std::vector<WriteOp> warm_ops, open_ops, closed_ops, mixed_ops;
  size_t warm_used = 0, open_next = 0, closed_next = 0, mixed_next = 0;
  int round = 0;

  // Accumulated over rounds.
  std::vector<Acked> write_acked;  // every write the write stack acked
  std::vector<Acked> open_acked;   // the open-loop subset (push join)
  std::vector<Acked> mixed_acked;
  Samples mixed_audit_ms, lag_us, capacity_per_s, health_us;
  std::vector<Samples> mixed_write_us, write_us;  // one entry per round
  uint64_t audit_mismatches = 0;
};

void ServedRunDeleter::operator()(ServedRun* run) const {
  std::string dir = run->options.scratch_dir;
  delete run;
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

ServedRunPtr SetUpServed(const ServedOptions& options,
                         const std::string& reference, Report* report) {
  ServedRunPtr run(new ServedRun());
  run->options = options;
  run->reference = reference;
  const WorkloadSpec& spec = options.workload;
  for (auto [stack, name] : {std::pair{&run->mixed, "mixed"},
                             std::pair{&run->writes, "writes"}}) {
    stack->world = BuildWorld(spec.world, options.seed);
    Status started =
        stack->world == nullptr
            ? Status::Internal("could not build the world")
            : StartStack(stack, options.scratch_dir + "/" + name);
    if (!started.ok()) {
      report->Mismatch(std::string("could not start the ") + name +
                       " stack: " + started.ToString());
      return nullptr;
    }
  }

  // Inputs, all from the seed. The open-loop stream carries the push
  // reads; the warm-up, closed-loop and mixed streams are generated.
  const World& ww = *run->writes.world;
  const PhasePlan& plan = options.plan;
  run->warm_ops = MakeWriteStream(ww, options.seed * 4 + 1, 3000, 0);
  size_t open_count =
      static_cast<size_t>(spec.write_rate * plan.open_s * plan.rounds) + 1;
  run->open_ops = MakeWriteStream(ww, options.seed * 4 + 2, open_count,
                                  spec.push_reads);
  run->closed_ops = MakeWriteStream(
      ww, options.seed * 4 + 3,
      static_cast<size_t>(8000 * plan.closed_s * plan.rounds) + 1000, 0);
  run->mixed_ops = MakeWriteStream(
      *run->mixed.world, options.seed * 4 + 4,
      static_cast<size_t>(spec.mixed_write_rate * plan.mixed_s *
                          plan.rounds) + 1,
      0);
  run->standing = MakeStandingExpressions(ww, options.seed);

  // Connections: two writers and a subscriber on the write stack, two
  // auditors and a writer on the mixed stack.
  for (int i = 0; i < 2; ++i) {
    run->writers.push_back(Connect(run->writes));
    run->auditors.push_back(Connect(run->mixed));
  }
  run->mixed_writers.push_back(Connect(run->mixed));
  if (!Reconnect(run->writers, report) || !Reconnect(run->auditors, report) ||
      !Reconnect(run->mixed_writers, report)) {
    return nullptr;
  }

  run->subscriber = Connect(run->writes);
  PushLog* pushes = &run->pushes;
  for (size_t i = 0; i < run->standing.texts.size(); ++i) {
    auto sub = run->subscriber->Subscribe(
        run->standing.texts[i], AuditNow(),
        [pushes](const net::PushEvent& event) {
          Clock::time_point arrived = Clock::now();
          std::lock_guard<std::mutex> lock(pushes->mutex);
          uint64_t& last_seq = pushes->last_seq[event.subscription_id];
          if (event.seq != last_seq + 1) ++pushes->out_of_order;
          if (event.kind == net::PushKind::kGap) {
            ++pushes->gap_frames;
            last_seq = event.seq + event.dropped - 1;
            return;
          }
          last_seq = event.seq;
          pushes->arrivals.emplace_back(event.log_id, arrived);
          pushes->last[event.subscription_id] = {event.rank, event.fired};
        });
    if (!sub.ok()) {
      report->Mismatch("subscribe '" + run->standing.texts[i] +
                       "': " + sub.status().ToString());
      return nullptr;
    }
    run->sub_index[sub->id] = i;
    run->expression_ids.push_back(sub->expression_id);
    run->initial_state.emplace_back(sub->rank, sub->fired);
  }

  // Warm-up: sequential generated writes until every fast-firing
  // expression has fired (each firing runs a full audit under the
  // server's writer lock, which must not land in a measured phase).
  auto all_fired = [&] {
    std::lock_guard<std::mutex> lock(pushes->mutex);
    for (const auto& [sub_id, index] : run->sub_index) {
      const auto& fast = run->standing.fast_firing;
      if (std::find(fast.begin(), fast.end(), index) == fast.end()) continue;
      auto it = pushes->last.find(sub_id);
      if (it == pushes->last.end() || !it->second.second) return false;
    }
    return true;
  };
  // At least kMinWarmWrites, so the decision cache has seen the
  // stream's common query shapes before the first measured round.
  constexpr size_t kMinWarmWrites = 500;
  for (const WriteOp& op : run->warm_ops) {
    if (run->warm_used % 50 == 0 && run->warm_used >= kMinWarmWrites) {
      WaitForPushQuiet(pushes, std::chrono::milliseconds(20),
                       std::chrono::seconds(5));
      if (all_fired()) break;
    }
    auto result = SendWrite(run->writers[0].get(), &run->writes, op);
    ++run->warm_used;
    report->Attempted(1);
    if (!result.ok()) {
      LogFailure(op.sql, result.status());
      report->Failed(1);
      continue;
    }
    run->write_acked.push_back(Acked{result->log_id, &op, {}});
  }
  WaitForPushQuiet(pushes, std::chrono::milliseconds(50),
                   std::chrono::seconds(5));
  if (!all_fired()) {
    std::fprintf(stderr, "warm-up: not every fast-firing expression fired "
                         "in %zu writes\n", run->warm_used);
  }
  {
    std::lock_guard<std::mutex> lock(pushes->mutex);
    pushes->arrivals.clear();
  }
  // One wire audit warms the mixed stack's decision cache.
  auto warm = run->auditors[0]->Audit(CanonicalAudit(), AuditNow());
  report->Attempted(1);
  if (!warm.ok()) report->Failed(1);
  return run;
}

namespace {

/// Two closed-loop audit connections beside one open-loop writer.
void MixedRound(ServedRun* run, Report* report) {
  Stack* stack = &run->mixed;
  const double seconds = run->options.plan.mixed_s;
  if (!Reconnect(run->auditors, report) ||
      !Reconnect(run->mixed_writers, report)) {
    return;
  }
  SharedSamples audit_ms;
  std::atomic<uint64_t> audit_failed{0}, audit_mismatch{0};
  Clock::time_point deadline = Clock::now() + ToDuration(seconds);
  std::vector<std::thread> threads;
  for (auto& client : run->auditors) {
    threads.emplace_back([&, c = client.get()] {
      while (Clock::now() < deadline) {
        Clock::time_point t0 = Clock::now();
        auto result = c->Audit(CanonicalAudit(), AuditNow());
        audit_ms.Add(MicrosBetween(t0, Clock::now()) / 1000.0);
        if (!result.ok()) {
          LogFailure("served audit", result.status());
          audit_failed.fetch_add(1);
        } else if (WithoutServedWrites(result->canonical, stack->preload) !=
                   run->reference) {
          audit_mismatch.fetch_add(1);
        }
      }
    });
  }
  OpenLoopResult writes =
      RunOpenLoop(run->mixed_writers, stack, run->mixed_ops, run->mixed_next,
                  run->options.workload.mixed_write_rate, seconds, run->round);
  for (auto& thread : threads) thread.join();
  run->mixed_next += writes.sent;

  Samples audits = audit_ms.Take();
  run->mixed_audit_ms.Append(audits);
  run->mixed_write_us.push_back(writes.latency_us);
  run->mixed_acked.insert(run->mixed_acked.end(), writes.acked.begin(),
                          writes.acked.end());
  run->audit_mismatches += audit_mismatch.load();
  report->Attempted(audits.count() + writes.sent);
  report->Failed(audit_failed.load() + writes.failed);
}

/// Open-loop writes at the workload's rate, then closed-loop writes for
/// capacity, with the subscriber attached throughout.
void WriteRound(ServedRun* run, Report* report) {
  Stack* stack = &run->writes;
  const PhasePlan& plan = run->options.plan;
  if (!Reconnect(run->writers, report)) return;

  // Sparse health pings on their own connection (traced runs only).
  std::atomic<bool> stop_pings{false};
  std::thread pinger;
  if (run->options.trace) {
    pinger = std::thread([&] {
      auto client = Connect(*stack);
      while (!stop_pings.load()) {
        Clock::time_point t0 = Clock::now();
        auto health = client->Health();
        if (health.ok()) run->health_us.Add(MicrosBetween(t0, Clock::now()));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  OpenLoopResult open =
      RunOpenLoop(run->writers, stack, run->open_ops, run->open_next,
                  run->options.workload.write_rate, plan.open_s, run->round);
  run->open_next += open.sent;

  std::atomic<size_t> next{run->closed_next};
  std::atomic<uint64_t> closed_ok{0}, closed_failed{0};
  std::mutex acked_mutex;
  std::vector<Acked> closed_acked;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = start + ToDuration(plan.closed_s);
  std::vector<std::thread> threads;
  for (auto& writer : run->writers) {
    threads.emplace_back([&, client = writer.get()] {
      while (Clock::now() < deadline) {
        size_t i = next.fetch_add(1);
        if (i >= run->closed_ops.size()) break;
        const WriteOp& op = run->closed_ops[i];
        auto result = SendWrite(client, stack, op);
        if (!result.ok()) {
          LogFailure(op.sql, result.status());
          closed_failed.fetch_add(1);
          continue;
        }
        closed_ok.fetch_add(1);
        std::lock_guard<std::mutex> lock(acked_mutex);
        closed_acked.push_back(Acked{result->log_id, &op, {}});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double elapsed = MicrosBetween(start, Clock::now()) / 1e6;
  run->closed_next = std::min(next.load(), run->closed_ops.size());
  stop_pings.store(true);
  if (pinger.joinable()) pinger.join();

  run->write_us.push_back(open.latency_us);
  run->lag_us.Append(open.lag_us);
  run->capacity_per_s.Add(static_cast<double>(closed_ok.load()) / elapsed);
  run->open_acked.insert(run->open_acked.end(), open.acked.begin(),
                         open.acked.end());
  run->write_acked.insert(run->write_acked.end(), open.acked.begin(),
                          open.acked.end());
  run->write_acked.insert(run->write_acked.end(), closed_acked.begin(),
                          closed_acked.end());
  report->Attempted(open.sent + closed_ok.load() + closed_failed.load());
  report->Failed(open.failed + closed_failed.load());
}

/// Checks a final served audit against a serial Auditor on the same
/// (now quiescent) stores.
void CheckFinalAudit(Stack* stack, const char* label, Report* report) {
  auto client = Connect(*stack);
  auto served = client->Audit(CanonicalAudit(), AuditNow());
  audit::Auditor auditor(&stack->world->db, &stack->world->backlog,
                         &stack->world->log);
  auto serial = auditor.Audit(CanonicalAudit(), AuditNow());
  report->Attempted(1);
  if (!served.ok() || !serial.ok()) {
    report->Failed(1);
    report->Mismatch(std::string(label) + ": final audit failed");
    return;
  }
  if (served->canonical != serial->CanonicalString()) {
    report->Mismatch(std::string(label) +
                     ": final served audit differs from the serial Auditor");
  }
}

/// Every acked write is in the log with its text, and the log grew by
/// exactly the acked count.
void CheckAckedWrites(const Stack& stack, const std::vector<Acked>& acked,
                      const char* label, Report* report) {
  const QueryLog& log = stack.world->log;
  if (log.size() != stack.preload + acked.size()) {
    report->Mismatch(std::string(label) + ": log grew by " +
                     std::to_string(log.size() - stack.preload) +
                     " entries for " + std::to_string(acked.size()) +
                     " acked writes");
  }
  for (const Acked& a : acked) {
    auto entry = log.Get(a.log_id);
    if (!entry.ok() || (*entry)->sql != a.op->sql ||
        (*entry)->user != a.op->user) {
      report->Mismatch(std::string(label) + ": acked write " +
                       std::to_string(a.log_id) + " is not in the log");
      return;
    }
  }
}

/// Push latency (dispatch of the write a push names to its handler
/// running) and the subscriber checks: every push read moved every
/// push-driver expression, no gaps, and each expression's last pushed
/// (rank, fired) equals its polled state.
void CheckPushes(ServedRun* run, Report* report) {
  WaitForPushQuiet(&run->pushes, std::chrono::milliseconds(100),
                   std::chrono::seconds(10));
  std::map<int64_t, Acked> dispatched;
  size_t push_reads = 0;
  for (const Acked& a : run->open_acked) {
    dispatched[a.log_id] = a;
    if (a.op->push_driver) ++push_reads;
  }
  std::vector<Samples> push_us(run->round);
  size_t pushes_seen = 0;
  std::vector<std::pair<double, bool>> last = run->initial_state;
  {
    std::lock_guard<std::mutex> lock(run->pushes.mutex);
    for (const auto& [log_id, arrived] : run->pushes.arrivals) {
      auto it = dispatched.find(log_id);
      if (it != dispatched.end()) {
        push_us[it->second.round].Add(
            MicrosBetween(it->second.dispatched, arrived));
        ++pushes_seen;
      }
    }
    if (run->pushes.gap_frames > 0 || run->pushes.out_of_order > 0) {
      report->Mismatch("subscriber saw " +
                       std::to_string(run->pushes.gap_frames) +
                       " gap frames and " +
                       std::to_string(run->pushes.out_of_order) +
                       " out-of-order pushes");
    }
    for (const auto& [sub_id, state] : run->pushes.last) {
      last[run->sub_index[sub_id]] = state;
    }
  }
  report->AddRoundPercentile("push_p50_us", push_us, 0.5, "us");
  report->AddRoundPercentile("push_p95_us", push_us, 0.95, "us");
  report->AddRoundPercentile("push_p99_us", push_us, 0.99, "us");
  if (pushes_seen < push_reads * run->standing.push_drivers) {
    report->Mismatch("push reads: " + std::to_string(push_reads) + " x " +
                     std::to_string(run->standing.push_drivers) +
                     " expressions expected, " +
                     std::to_string(pushes_seen) + " pushes seen");
  }

  auto poller = Connect(run->writes);
  for (size_t i = 0; i < run->expression_ids.size(); ++i) {
    auto polled = poller->SubscribeById(run->expression_ids[i],
                                       [](const net::PushEvent&) {});
    report->Attempted(1);
    if (!polled.ok()) {
      report->Failed(1);
      report->Mismatch("poll of expression " + std::to_string(i) +
                       " failed: " + polled.status().ToString());
      continue;
    }
    if (polled->rank != last[i].first || polled->fired != last[i].second) {
      report->Mismatch("expression " + std::to_string(i) +
                       ": last push differs from the polled state");
    }
  }
  poller->Close();
}

/// The write stack's own counters, read once from its Metrics endpoint.
void AddServerCounters(ServedRun* run, Report* report) {
  auto metrics = run->writers[0]->MetricsJson();
  if (!metrics.ok()) {
    report->Mismatch("metrics endpoint: " + metrics.status().ToString());
    return;
  }
  for (const char* key : {"net.admission_rejected", "pool.jobs_rejected",
                          "net.push_observe_errors"}) {
    report->Add(key, std::max(0.0, JsonNumber(*metrics, key)), "count");
  }
  double hits = JsonNumber(*metrics, "cache_hits");
  double misses = JsonNumber(*metrics, "cache_misses");
  report->Add("index.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
              static_cast<size_t>(std::max(0.0, hits + misses)));
  std::lock_guard<std::mutex> lock(run->pushes.mutex);
  report->Add("push.gap_frames", run->pushes.gap_frames, "count");
}

/// Replays the write stack's warm-up and open-loop stream, then audits,
/// in-process against a fresh copy of its stores, with a span around
/// each layer's public call.
void RunReplay(ServedRun* run, Report* report) {
  Tracer* tracer = run->options.tracer;
  auto world = BuildWorld(run->options.workload.world, run->options.seed);
  if (world == nullptr) {
    report->Mismatch("replay: could not build the world");
    return;
  }
  querylog::WalWriterOptions wal_options;
  wal_options.fsync = querylog::FsyncPolicy::kNever;
  auto wal = querylog::WalWriter::Open(
      io::Env::Default(), run->options.scratch_dir + "/replay.wal",
      wal_options);
  if (!wal.ok()) {
    report->Mismatch("replay: " + wal.status().ToString());
    return;
  }
  service::AuditService service(&world->db, &world->backlog, &world->log);
  audit::OnlineAuditorOptions online_options;
  online_options.cache = service.decision_cache();
  audit::OnlineAuditor online(&world->db, online_options);
  for (const auto& text : run->standing.texts) {
    auto expr = audit::ParseAudit(text, AuditNow());
    if (!expr.ok() || !online.AddExpression(*expr).ok()) {
      report->Mismatch("replay: cannot register '" + text + "'");
      return;
    }
  }

  std::vector<const WriteOp*> ops;
  for (size_t i = 0; i < run->warm_used; ++i) ops.push_back(&run->warm_ops[i]);
  for (size_t i = 0; i < run->open_next; ++i) ops.push_back(&run->open_ops[i]);
  for (size_t i = 0; i < ops.size(); ++i) {
    const WriteOp& op = *ops[i];
    const int64_t id = static_cast<int64_t>(i);
    report->Attempted(1);
    auto stmt = sql::ParseSelect(op.sql);
    if (!stmt.ok()) {
      report->Failed(1);
      continue;
    }
    DatabaseView view = world->db.Snapshot();
    auto profile = Traced(tracer, "engine.execute", id, [&] {
      return ComputeAccessProfile(*stmt, view);
    });
    if (!profile.ok()) {
      report->Failed(1);
      continue;
    }
    LoggedQuery entry;
    entry.id = world->log.next_id();
    entry.sql = op.sql;
    entry.timestamp = ServedStamp(i);
    entry.user = op.user;
    entry.role = op.role;
    entry.purpose = op.purpose;
    Status appended = Traced(tracer, "querylog.wal_append", id, [&] {
      return (*wal)->Append(querylog::WalRecordType::kQuery,
                            querylog::EncodeQueryWalPayload(entry));
    });
    if (!appended.ok()) report->Failed(1);
    Traced(tracer, "querylog.append", id, [&] {
      return world->log.Append(entry.sql, entry.timestamp, entry.user,
                               entry.role, entry.purpose);
    });
    auto observed = Traced(tracer, "online.observe", id, [&] {
      return online.Observe(world->log.Entry(world->log.size() - 1),
                            service.pool());
    });
    if (!observed.ok()) report->Failed(1);
  }
  (void)(*wal)->Close();

  for (int64_t i = 0; i < 5; ++i) {
    auto audited = Traced(tracer, "service.audit", i, [&] {
      return service.Audit(CanonicalAudit(), AuditNow());
    });
    report->Attempted(1);
    if (!audited.ok()) report->Failed(1);
  }
  auto add = [&](const char* metric, const char* span, const char* unit,
                 double scale) {
    report->AddPercentile(metric, tracer->SpanMicros(span), 0.5, unit, scale);
  };
  add("engine.execute_us", "engine.execute", "us", 1);
  add("online.observe_us", "online.observe", "us", 1);
  add("querylog.append_us", "querylog.append", "us", 1);
  add("querylog.wal_append_us", "querylog.wal_append", "us", 1);
  add("service.audit_ms", "service.audit", "ms", 1e-3);
}

}  // namespace

void ServedRound(ServedRun* run, Report* report) {
  MixedRound(run, report);
  WriteRound(run, report);
  ++run->round;
}

void FinishServed(ServedRun* run, Report* report) {
  report->AddPercentile("mixed_audit_p50_ms", run->mixed_audit_ms, 0.5, "ms");
  report->AddPercentile("mixed_audit_p90_ms", run->mixed_audit_ms, 0.9, "ms");
  // The slow writer gives too few samples per round for a per-round p99.
  Samples mixed_writes;
  for (const Samples& round : run->mixed_write_us) mixed_writes.Append(round);
  report->AddPercentile("mixed_write_p99_us", mixed_writes, 0.99, "us");
  report->AddRoundPercentile("write_p50_us", run->write_us, 0.5, "us");
  report->AddRoundPercentile("write_p95_us", run->write_us, 0.95, "us");
  report->AddRoundPercentile("write_p99_us", run->write_us, 0.99, "us");
  report->Add("writes_per_s", run->capacity_per_s.Median(), "1/s",
              run->capacity_per_s.count(),
              "median over rounds, closed loop, 2 connections");
  if (run->audit_mismatches > 0) {
    report->Mismatch(std::to_string(run->audit_mismatches) +
                     " served audits differ from the reference");
  }
  CheckPushes(run, report);
  CheckAckedWrites(run->mixed, run->mixed_acked, "mixed stack", report);
  CheckFinalAudit(&run->mixed, "mixed stack", report);
  CheckAckedWrites(run->writes, run->write_acked, "write stack", report);
  CheckFinalAudit(&run->writes, "write stack", report);
  if (run->options.trace) {
    report->AddPercentile("net.health_rtt_us", run->health_us, 0.5, "us");
    report->AddPercentile("bench.generator_lag_ms", run->lag_us, 0.99, "ms",
                          1e-3);
    AddServerCounters(run, report);
    RunReplay(run, report);
  }
}

}  // namespace perfbench
