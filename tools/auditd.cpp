/// auditd — the network audit daemon: serves the concurrent
/// AuditService over the framed wire protocol (docs/wire_protocol.md).
///
/// Usage: auditd [flags]
///   --host H                 IPv4 to bind (default 127.0.0.1)
///   --port P                 TCP port; 0 picks an ephemeral port
///   --service-threads N      audit worker pool size (0 = hardware)
///   --handler-threads N      request handler pool size (default 4)
///   --handler-queue N        handler queue capacity (default 64)
///   --admission block|reject what a full handler queue does
///                            (reject surfaces RESOURCE_EXHAUSTED to
///                            the client; block pauses reads)
///   --max-frame BYTES        per-frame body cap (default 4 MiB)
///   --max-response BYTES     response body cap; larger replies become
///                            OUT_OF_RANGE errors (default 4 MiB)
///   --idle-timeout-ms N      evict idle connections after N ms
///   --max-subscriptions N    server-wide cap on live push
///                            subscriptions (default 1024)
///   --push-queue-depth N     bounded per-subscription outbound queue
///                            (default 64); overflow applies the
///                            slow-subscriber policy
///   --slow-subscriber-policy drop|evict
///                            what a full push queue does: shed oldest
///                            events behind a GAP frame (drop, the
///                            default) or evict the connection
///   --so-sndbuf BYTES        SO_SNDBUF for accepted connections
///                            (0 = kernel default; soaks shrink it so
///                            push backpressure triggers with little
///                            traffic)
///   --fixture hospital:N[:SEED]   populate the hospital instance
///   --workload N[:SEED]      append N generated queries to the log
///   --db FILE                load a database dump at startup
///   --log FILE               load a query-log dump at startup
///   --data-dir DIR           durable store (docs/durability.md): recover
///                            snapshot + WAL on startup, WAL-append every
///                            acked ExecuteQuery, checkpoint on drain.
///                            When DIR already holds a MANIFEST the disk
///                            state wins and --fixture/--db/--log are
///                            skipped.
///   --fsync POLICY           WAL fsync policy: always (default; an acked
///                            append survives kill -9), every_n[:N], never
///   --checkpoint-every N     snapshot after N WAL records (default 4096;
///                            0 = only on drain)
///   --audit-rules FILE       policy rule config (docs/policy.md): every
///                            ExecuteQuery is matched against the rules;
///                            matching rules drive sink emission,
///                            redaction, and audit detail. SIGHUP
///                            re-reads the file and swaps the config
///                            atomically; a broken file keeps the old
///                            rules live.
///   --audit-sink-file FILE   attach the "file" policy sink (AUDIT line
///                            protocol, appended)
///   --audit-sink-syslog FILE attach the "syslog" policy sink ("-" =
///                            stderr)
///   --db-name NAME           database name rule `database =` clauses
///                            match (default auditdb)
///   --replicate-from H:P     start as a read-only replica streaming the
///                            primary at H:P (docs/replication.md):
///                            rejects ExecuteQuery/LoadDump with
///                            NOT_PRIMARY, applies the primary's WAL
///                            stream through the recovery path, serves
///                            reads. PROMOTE turns it into a primary.
///   --repl-ack POLICY        follower acks an ExecuteQuery waits for
///                            before its OK: none (default), quorum
///                            (majority of primary+followers; promotion
///                            then never loses an acked write), all
///   --repl-ack-timeout-ms N  WaitForAcks budget (default 2000); expiry
///                            answers DEADLINE_EXCEEDED — committed
///                            locally but under-replicated
///   --advertise H:P          address other nodes should use for this
///                            one (NOT_PRIMARY redirects, metrics);
///                            defaults to the bound host:port
///   --port-file FILE         write the bound port (for scripts that
///                            start auditd on an ephemeral port)
///   --quiet                  suppress the startup banner
///
/// SIGTERM/SIGINT drain gracefully: the listener closes, in-flight
/// requests finish and flush, a final checkpoint persists the stores
/// (with --data-dir), then the daemon exits 0 and prints the final
/// metrics JSON. SIGHUP hot-reloads --audit-rules.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/io/dump.h"
#include "src/io/file.h"
#include "src/io/store.h"
#include "src/net/server.h"
#include "src/policy/policy_engine.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

using namespace auditdb;

namespace {

struct Flags {
  std::string host = "127.0.0.1";
  int port = 0;
  size_t service_threads = 0;
  size_t handler_threads = 4;
  size_t handler_queue = 64;
  service::AdmissionPolicy admission = service::AdmissionPolicy::kReject;
  size_t max_frame = net::kDefaultMaxFrameBytes;
  size_t max_response = net::kDefaultMaxFrameBytes;
  int idle_timeout_ms = 30000;
  size_t fixture_patients = 0;
  uint64_t fixture_seed = 2008;
  size_t workload_queries = 0;
  uint64_t workload_seed = 7;
  std::string db_file;
  std::string log_file;
  std::string data_dir;
  querylog::FsyncPolicy fsync = querylog::FsyncPolicy::kAlways;
  size_t fsync_every_n = 64;
  uint64_t checkpoint_every = 4096;
  std::string port_file;
  bool quiet = false;
  size_t max_subscriptions = 1024;
  size_t push_queue_depth = 64;
  net::SlowSubscriberPolicy slow_subscriber_policy =
      net::SlowSubscriberPolicy::kDropOldest;
  size_t so_sndbuf = 0;
  std::string audit_rules;
  std::string audit_sink_file;
  std::string audit_sink_syslog;
  std::string db_name = "auditdb";
  std::string replicate_from;
  net::ReplAckPolicy repl_ack = net::ReplAckPolicy::kNone;
  int repl_ack_timeout_ms = 2000;
  std::string advertise;
  bool replication = false;  // any --repl* / --advertise flag given
};

bool ParseSize(const char* text, size_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

/// Parses "N" or "N:SEED".
bool ParseCountSeed(const std::string& text, size_t* count,
                    uint64_t* seed) {
  auto colon = text.find(':');
  std::string head = text.substr(0, colon);
  if (!ParseSize(head.c_str(), count)) return false;
  if (colon != std::string::npos) {
    size_t s;
    if (!ParseSize(text.c_str() + colon + 1, &s)) return false;
    *seed = s;
  }
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [flags] (see header comment)\n", argv0);
  return 2;
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
    if (arg == "--quiet") {
      flags.quiet = true;
    } else if (arg == "--host" && (value = next())) {
      flags.host = value;
    } else if (arg == "--port" && (value = next())) {
      flags.port = std::atoi(value);
    } else if (arg == "--service-threads" && (value = next())) {
      if (!ParseSize(value, &flags.service_threads)) return Usage(argv[0]);
    } else if (arg == "--handler-threads" && (value = next())) {
      if (!ParseSize(value, &flags.handler_threads)) return Usage(argv[0]);
    } else if (arg == "--handler-queue" && (value = next())) {
      if (!ParseSize(value, &flags.handler_queue)) return Usage(argv[0]);
    } else if (arg == "--admission" && (value = next())) {
      if (std::strcmp(value, "block") == 0) {
        flags.admission = service::AdmissionPolicy::kBlock;
      } else if (std::strcmp(value, "reject") == 0) {
        flags.admission = service::AdmissionPolicy::kReject;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--max-frame" && (value = next())) {
      if (!ParseSize(value, &flags.max_frame)) return Usage(argv[0]);
    } else if (arg == "--max-response" && (value = next())) {
      if (!ParseSize(value, &flags.max_response)) return Usage(argv[0]);
    } else if (arg == "--idle-timeout-ms" && (value = next())) {
      flags.idle_timeout_ms = std::atoi(value);
    } else if (arg == "--max-subscriptions" && (value = next())) {
      if (!ParseSize(value, &flags.max_subscriptions)) return Usage(argv[0]);
    } else if (arg == "--push-queue-depth" && (value = next())) {
      if (!ParseSize(value, &flags.push_queue_depth)) return Usage(argv[0]);
    } else if (arg == "--slow-subscriber-policy" && (value = next())) {
      auto policy = net::ParseSlowSubscriberPolicy(value);
      if (!policy.ok()) return Usage(argv[0]);
      flags.slow_subscriber_policy = *policy;
    } else if (arg == "--so-sndbuf" && (value = next())) {
      if (!ParseSize(value, &flags.so_sndbuf)) return Usage(argv[0]);
    } else if (arg == "--fixture" && (value = next())) {
      std::string spec = value;
      if (spec.rfind("hospital:", 0) != 0 ||
          !ParseCountSeed(spec.substr(9), &flags.fixture_patients,
                          &flags.fixture_seed)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--workload" && (value = next())) {
      if (!ParseCountSeed(value, &flags.workload_queries,
                          &flags.workload_seed)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--db" && (value = next())) {
      flags.db_file = value;
    } else if (arg == "--log" && (value = next())) {
      flags.log_file = value;
    } else if (arg == "--data-dir" && (value = next())) {
      flags.data_dir = value;
    } else if (arg == "--fsync" && (value = next())) {
      auto policy = querylog::ParseFsyncPolicy(value, &flags.fsync_every_n);
      if (!policy.ok()) return Usage(argv[0]);
      flags.fsync = *policy;
    } else if (arg == "--checkpoint-every" && (value = next())) {
      size_t n = 0;
      if (!ParseSize(value, &n)) return Usage(argv[0]);
      flags.checkpoint_every = n;
    } else if (arg == "--audit-rules" && (value = next())) {
      flags.audit_rules = value;
    } else if (arg == "--audit-sink-file" && (value = next())) {
      flags.audit_sink_file = value;
    } else if (arg == "--audit-sink-syslog" && (value = next())) {
      flags.audit_sink_syslog = value;
    } else if (arg == "--db-name" && (value = next())) {
      flags.db_name = value;
    } else if (arg == "--replicate-from" && (value = next())) {
      if (!net::ParseHostPort(value).ok()) return Usage(argv[0]);
      flags.replicate_from = value;
      flags.replication = true;
    } else if (arg == "--repl-ack" && (value = next())) {
      auto policy = net::ParseReplAckPolicy(value);
      if (!policy.ok()) return Usage(argv[0]);
      flags.repl_ack = *policy;
      flags.replication = true;
    } else if (arg == "--repl-ack-timeout-ms" && (value = next())) {
      flags.repl_ack_timeout_ms = std::atoi(value);
      flags.replication = true;
    } else if (arg == "--advertise" && (value = next())) {
      if (!net::ParseHostPort(value).ok()) return Usage(argv[0]);
      flags.advertise = value;
      flags.replication = true;
    } else if (arg == "--port-file" && (value = next())) {
      flags.port_file = value;
    } else {
      return Usage(argv[0]);
    }
  }

  // Route SIGTERM/SIGINT (drain) and SIGHUP (policy reload) to the
  // sigwait loop below; block them before any thread spawns so every
  // pool worker inherits the mask.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  QueryLog log;
  Timestamp t0(1000000);

  // With a durable data dir that already holds a MANIFEST, the disk
  // state is authoritative: recovery must start from empty stores, so
  // fixture/workload/dump flags are skipped (the stores they would
  // seed were already persisted by the run that created the MANIFEST).
  io::Env* env = io::Env::Default();
  const bool recovering =
      !flags.data_dir.empty() &&
      io::DurableStore::HasManifest(env, flags.data_dir);
  if (recovering &&
      (flags.fixture_patients > 0 || !flags.db_file.empty() ||
       !flags.log_file.empty())) {
    std::fprintf(stderr,
                 "auditd: %s holds a MANIFEST; ignoring "
                 "--fixture/--workload/--db/--log and recovering from "
                 "disk\n",
                 flags.data_dir.c_str());
    flags.fixture_patients = 0;
    flags.workload_queries = 0;
    flags.db_file.clear();
    flags.log_file.clear();
  }

  if (flags.fixture_patients > 0) {
    workload::HospitalConfig hospital;
    hospital.num_patients = flags.fixture_patients;
    hospital.seed = flags.fixture_seed;
    Status status = workload::PopulateHospital(&db, hospital, t0);
    if (!status.ok()) {
      std::fprintf(stderr, "fixture: %s\n", status.ToString().c_str());
      return 1;
    }
    if (flags.workload_queries > 0) {
      workload::WorkloadConfig workload;
      workload.num_queries = flags.workload_queries;
      workload.seed = flags.workload_seed;
      workload.start = Timestamp(100 * 1000000);
      status = workload::GenerateWorkload(&log, workload, hospital);
      if (!status.ok()) {
        std::fprintf(stderr, "workload: %s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  if (!flags.db_file.empty()) {
    Status status = io::LoadDatabase(flags.db_file, &db, t0);
    if (!status.ok()) {
      std::fprintf(stderr, "--db: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!flags.log_file.empty()) {
    Status status = io::LoadQueryLog(flags.log_file, &log);
    if (!status.ok()) {
      std::fprintf(stderr, "--log: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<io::DurableStore> store;
  if (!flags.data_dir.empty()) {
    io::DurableStoreOptions store_options;
    store_options.fsync = flags.fsync;
    store_options.fsync_every_n = flags.fsync_every_n;
    store_options.checkpoint_every_records = flags.checkpoint_every;
    auto opened = io::DurableStore::Open(env, flags.data_dir, &db, &log,
                                         t0, store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "--data-dir: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(*opened);
    if (!flags.quiet) {
      const io::RecoveryInfo& recovery = store->recovery();
      if (recovery.manifest_found) {
        std::fprintf(stderr,
                     "auditd: recovered snapshot %llu (%llu queries) + "
                     "%llu WAL records, dropped %llu torn bytes\n",
                     (unsigned long long)recovery.snapshot_seq,
                     (unsigned long long)recovery.snapshot_queries,
                     (unsigned long long)recovery.recovered_records,
                     (unsigned long long)recovery.torn_tail_dropped);
      } else {
        std::fprintf(stderr,
                     "auditd: initialized durable store %s "
                     "(checkpoint %llu, fsync=%s)\n",
                     flags.data_dir.c_str(),
                     (unsigned long long)store->last_checkpoint_seq(),
                     querylog::FsyncPolicyName(flags.fsync));
      }
    }
  }

  // Policy engine: attach sinks first (rules reference them by name),
  // then load the rules file. Declared before the server so it outlives
  // every handler thread.
  std::unique_ptr<policy::PolicyEngine> engine;
  if (!flags.audit_rules.empty()) {
    policy::PolicyEngineOptions engine_options;
    engine_options.database_name = flags.db_name;
    engine = std::make_unique<policy::PolicyEngine>(engine_options);
    if (!flags.audit_sink_file.empty()) {
      auto sink = policy::FileSink::Open(env, flags.audit_sink_file);
      if (!sink.ok()) {
        std::fprintf(stderr, "--audit-sink-file: %s\n",
                     sink.status().ToString().c_str());
        return 1;
      }
      Status attached = engine->AttachSink(std::move(*sink));
      if (!attached.ok()) {
        std::fprintf(stderr, "--audit-sink-file: %s\n",
                     attached.ToString().c_str());
        return 1;
      }
    }
    if (!flags.audit_sink_syslog.empty()) {
      auto sink = policy::SyslogLineSink::Open(env, flags.audit_sink_syslog);
      if (!sink.ok()) {
        std::fprintf(stderr, "--audit-sink-syslog: %s\n",
                     sink.status().ToString().c_str());
        return 1;
      }
      Status attached = engine->AttachSink(std::move(*sink));
      if (!attached.ok()) {
        std::fprintf(stderr, "--audit-sink-syslog: %s\n",
                     attached.ToString().c_str());
        return 1;
      }
    }
    Status loaded =
        engine->LoadFile(env, flags.audit_rules, Timestamp::Now());
    if (!loaded.ok()) {
      std::fprintf(stderr, "--audit-rules: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    // Everything rendered from the log (shell display, wire
    // DetailedReport echoes) goes through the engine's union redaction
    // set; the stored entries keep the unredacted text that drives
    // audits.
    log.SetRedactor([engine_ptr = engine.get()](const std::string& sql) {
      return engine_ptr->RedactForDisplay(sql);
    });
  } else if (!flags.audit_sink_file.empty() ||
             !flags.audit_sink_syslog.empty()) {
    std::fprintf(stderr,
                 "auditd: --audit-sink-* requires --audit-rules\n");
    return 1;
  }

  service::AuditServiceOptions service_options;
  service_options.pool.num_threads = flags.service_threads;
  service::AuditService audit_service(&db, &backlog, &log,
                                      service_options);

  net::AuditServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.max_frame_bytes = flags.max_frame;
  server_options.max_response_bytes = flags.max_response;
  server_options.idle_timeout =
      std::chrono::milliseconds(flags.idle_timeout_ms);
  server_options.handlers.num_threads = flags.handler_threads;
  server_options.handlers.queue_capacity = flags.handler_queue;
  server_options.handlers.admission = flags.admission;
  server_options.max_subscriptions = flags.max_subscriptions;
  server_options.push_queue_depth = flags.push_queue_depth;
  server_options.slow_subscriber_policy = flags.slow_subscriber_policy;
  server_options.so_sndbuf = static_cast<int>(flags.so_sndbuf);
  server_options.durable_store = store.get();
  server_options.policy = engine.get();
  server_options.replicate_from = flags.replicate_from;
  server_options.repl_ack = flags.repl_ack;
  server_options.repl_ack_timeout =
      std::chrono::milliseconds(flags.repl_ack_timeout_ms);
  server_options.advertise_address = flags.advertise;
  // Replicated dumps restore rows with the primary's stamp; ship the
  // same t0 fixtures and recovery use so DATA-INTERVAL audits agree
  // across the cluster.
  server_options.bootstrap_stamp_micros = t0.micros();
  server_options.replication = flags.replication;
  net::AuditServer server(&audit_service, &db, &backlog, &log,
                          server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  if (!flags.port_file.empty()) {
    // Atomic so a script polling the path never reads a partial write.
    Status wrote = io::AtomicWriteFile(
        env, flags.port_file, std::to_string(server.port()) + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "--port-file: %s\n", wrote.ToString().c_str());
      server.Shutdown();
      return 1;
    }
  }
  if (!flags.quiet) {
    std::printf(
        "auditd listening on %s:%u (service threads=%zu, handlers=%zu, "
        "admission=%s, log=%zu queries",
        server.host().c_str(), server.port(),
        audit_service.num_threads(), flags.handler_threads,
        flags.admission == service::AdmissionPolicy::kReject ? "reject"
                                                             : "block",
        log.size());
    if (engine != nullptr) {
      std::printf(", policy rules=%zu", engine->rule_count());
    }
    if (!flags.replicate_from.empty()) {
      std::printf(", replica of %s", flags.replicate_from.c_str());
    } else if (flags.replication) {
      std::printf(", repl-ack=%s",
                  net::ReplAckPolicyName(flags.repl_ack));
    }
    std::printf(")\n");
    std::fflush(stdout);
  }

  int sig = 0;
  while (true) {
    sigwait(&sigs, &sig);
    if (sig != SIGHUP) break;
    // SIGHUP: hot-reload the rules file. The swap is atomic — queries
    // decided under the old config finish under it; a broken file
    // keeps the old rules live (counted in policy.reload_failures).
    if (engine == nullptr) {
      std::fprintf(stderr,
                   "auditd: SIGHUP but no --audit-rules; ignoring\n");
      continue;
    }
    Status reloaded = engine->Reload(Timestamp::Now());
    if (reloaded.ok()) {
      std::fprintf(stderr,
                   "auditd: reloaded %s (%zu rules, generation %llu)\n",
                   engine->config_path().c_str(), engine->rule_count(),
                   (unsigned long long)engine->generation());
    } else {
      std::fprintf(stderr,
                   "auditd: reload of %s failed, keeping old rules: %s\n",
                   engine->config_path().c_str(),
                   reloaded.ToString().c_str());
    }
  }
  if (!flags.quiet) {
    std::fprintf(stderr, "auditd: signal %d, draining...\n", sig);
  }
  server.Shutdown();
  if (engine != nullptr) {
    Status flushed = engine->FlushSinks();
    if (!flushed.ok()) {
      std::fprintf(stderr, "auditd: sink flush failed: %s\n",
                   flushed.ToString().c_str());
    }
  }
  // The drain finished every in-flight handler, so db/log are quiescent:
  // persist a final checkpoint and truncate the WAL before exiting.
  if (store != nullptr && !store->broken()) {
    Status final_checkpoint = store->Checkpoint(db, log);
    if (!final_checkpoint.ok()) {
      std::fprintf(stderr, "auditd: final checkpoint failed: %s\n",
                   final_checkpoint.ToString().c_str());
      std::printf("%s\n", server.MetricsJson().c_str());
      return 1;
    }
  }
  std::printf("%s\n", server.MetricsJson().c_str());
  return 0;
}
