/// audit_shell — interactive / scriptable front end for the auditing
/// framework.
///
/// Usage: audit_shell [script-file]
///   Reads commands from the script file (one per line) or from stdin.
///
/// Commands:
///   .help                         this text
///   .fixture paper                load the paper's Tables 1-3 instance
///   .fixture hospital <N> [seed]  generate an N-patient hospital
///   .load db <file>               load a database dump
///   .load log <file>              load a query-log dump
///   .save db <file>               write the database as a dump
///   .save log <file>              write the query log as a dump
///   .tables                       list tables with row counts
///   .show <table>                 print a table
///   .log                          print the query log
///   .as <user> <role> <purpose>   set annotations for subsequent queries
///   .at <d/m/yyyy[:hh-mm-ss]>     set the clock for subsequent commands
///   .workload <N> [seed]          append N generated queries to the log
///   .audit [--jobs N] <expression>
///                                 run an audit (expression on one line);
///                                 --jobs N uses the concurrent audit
///                                 service on N workers and prints its
///                                 metrics JSON after the report
///   .audit-static [--jobs N] <expression>
///                                 data-independent audit only
///   .granules <expression>        print the granule set (first 100)
///   .connect <host:port>          attach to a running auditd; while
///                                 connected, .audit / .audit-static,
///                                 SELECT and .load run remotely
///   .disconnect                   back to the in-process stores
///   .metrics                      remote server + service (+ index,
///                                 push, policy, replication) metrics
///                                 JSON
///   .policy                       just the remote "policy" metrics
///                                 section (rule hits, redactions,
///                                 suppressed logs, reload generation)
///   .replication                  just the remote "replication"
///                                 section (role, shipped/applied WAL
///                                 seqs, follower lag + ack latency)
///   .subscribe <expr|#id>         stream verdict pushes for a standing
///                                 audit expression to the terminal
///                                 (an integer or #id attaches to an
///                                 existing server-side expression)
///   .unsubscribe <sub-id>         cancel one subscription
///   .quit                         exit
///   SELECT ...                    execute, print results, append to log
///
/// Anything else starting with SELECT is treated as a query.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "src/audit/auditor.h"
#include "src/audit/granule.h"
#include "src/common/string_util.h"
#include "src/net/client.h"
#include "src/service/audit_service.h"
#include "src/io/dump.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

using namespace auditdb;

namespace {

/// Extracts the balanced-brace object value of a top-level `"key":{...}`
/// from a JSON text; empty string when absent. Good enough for the
/// metrics JSON we produce (no braces inside strings).
std::string ExtractJsonObject(const std::string& json,
                              const std::string& key) {
  std::string needle = "\"" + key + "\":{";
  size_t start = json.find(needle);
  if (start == std::string::npos) return "";
  size_t open = start + needle.size() - 1;
  int depth = 0;
  for (size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(open, i - open + 1);
    }
  }
  return "";
}

class Shell {
 public:
  Shell() { backlog_.Attach(&db_); }

  int Run(std::istream& in, bool interactive) {
    std::string line;
    if (interactive) std::printf("auditdb shell — .help for commands\n");
    while (true) {
      if (interactive) {
        std::printf("audit> ");
        std::fflush(stdout);
      }
      if (!std::getline(in, line)) break;
      // Trailing backslash continues the command on the next line.
      while (!line.empty() && line.back() == '\\') {
        line.pop_back();
        line += ' ';
        std::string more;
        if (interactive) {
          std::printf("   ...> ");
          std::fflush(stdout);
        }
        if (!std::getline(in, more)) break;
        line += more;
      }
      std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      if (trimmed == ".quit" || trimmed == ".exit") break;
      Status status = Dispatch(std::string(trimmed));
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
      }
    }
    return 0;
  }

 private:
  static std::vector<std::string> Words(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream stream(text);
    std::string word;
    while (stream >> word) out.push_back(word);
    return out;
  }

  Status Dispatch(const std::string& line) {
    if (line[0] != '.') return RunQuery(line);
    auto words = Words(line);
    const std::string& cmd = words[0];

    if (cmd == ".help") {
      std::printf(
          ".fixture paper | .fixture hospital N [seed]\n"
          ".load db|log <file>   .save db|log <file>\n"
          ".tables  .show <table>  .log\n"
          ".as <user> <role> <purpose>   .at <timestamp>\n"
          ".workload N [seed]\n"
          ".audit [--jobs N] <expr>  .audit-static [--jobs N] <expr>\n"
          ".granules <expr>\n"
          ".connect <host:port>  .disconnect  .metrics  .policy  "
          ".replication\n"
          ".subscribe <expr|#id>  .unsubscribe <sub-id>\n"
          "SELECT ...  runs a query and logs it\n"
          ".quit\n");
      return Status::Ok();
    }
    if (cmd == ".connect") {
      if (words.size() != 2) {
        return Status::InvalidArgument("usage: .connect <host:port>");
      }
      auto colon = words[1].rfind(':');
      int64_t port = 0;
      if (colon == std::string::npos ||
          !ParseCount(words[1].substr(colon + 1), &port) || port <= 0 ||
          port > 65535) {
        return Status::InvalidArgument("expected host:port, got " +
                                       words[1]);
      }
      auto client = std::make_unique<net::AuditClient>(
          words[1].substr(0, colon), static_cast<uint16_t>(port));
      AUDITDB_RETURN_IF_ERROR(client->Connect());
      auto health = client->Health();
      if (!health.ok()) return health.status();
      remote_ = std::move(client);
      std::printf("connected to auditd at %s (health: %s)\n",
                  words[1].c_str(), health->c_str());
      return Status::Ok();
    }
    if (cmd == ".disconnect") {
      if (!remote_) return Status::InvalidArgument("not connected");
      remote_.reset();
      std::printf("back to in-process stores\n");
      return Status::Ok();
    }
    if (cmd == ".metrics") {
      if (!remote_) return Status::InvalidArgument("not connected");
      auto metrics = remote_->MetricsJson();
      if (!metrics.ok()) return metrics.status();
      std::printf("%s\n", metrics->c_str());
      return Status::Ok();
    }
    if (cmd == ".policy") {
      // The server's "policy" metrics section: rule hit counts,
      // redactions, suppressed logs, reload generation.
      if (!remote_) return Status::InvalidArgument("not connected");
      auto metrics = remote_->MetricsJson();
      if (!metrics.ok()) return metrics.status();
      std::string section = ExtractJsonObject(*metrics, "policy");
      if (section.empty()) {
        std::printf("no policy engine attached (start auditd with "
                    "--audit-rules)\n");
      } else {
        std::printf("%s\n", section.c_str());
      }
      return Status::Ok();
    }
    if (cmd == ".replication") {
      // The server's "replication" metrics section: role, shipped and
      // applied WAL seqs, per-follower lag in records/bytes and ack
      // latency (docs/replication.md).
      if (!remote_) return Status::InvalidArgument("not connected");
      auto metrics = remote_->MetricsJson();
      if (!metrics.ok()) return metrics.status();
      std::string section = ExtractJsonObject(*metrics, "replication");
      if (section.empty()) {
        std::printf("replication off (start auditd with --replicate-from "
                    "or --repl-ack)\n");
      } else {
        std::printf("%s\n", section.c_str());
      }
      return Status::Ok();
    }
    if (cmd == ".subscribe") {
      if (!remote_) return Status::InvalidArgument("not connected");
      std::string rest(Trim(line.substr(cmd.size())));
      if (rest.empty()) {
        return Status::InvalidArgument("usage: .subscribe <expr|#id>");
      }
      // Prints from the client's receiver thread; interleaving with the
      // prompt is the price of live alerts in a line-based shell.
      auto handler = [](const net::PushEvent& event) {
        if (event.kind == net::PushKind::kGap) {
          std::printf("\n[push] sub=%lld seq=%llu GAP dropped=%llu "
                      "(slow subscriber, events shed)\n",
                      static_cast<long long>(event.subscription_id),
                      static_cast<unsigned long long>(event.seq),
                      static_cast<unsigned long long>(event.dropped));
        } else {
          std::printf("\n[push] sub=%lld seq=%llu %s expr=%d "
                      "log=#%lld rank=%.6f fired=%d%s%s\n",
                      static_cast<long long>(event.subscription_id),
                      static_cast<unsigned long long>(event.seq),
                      net::PushKindName(event.kind), event.expression_id,
                      static_cast<long long>(event.log_id), event.rank,
                      event.fired ? 1 : 0,
                      event.verdict.empty() ? "" : "\n  verdict: ",
                      event.verdict.c_str());
        }
        std::fflush(stdout);
      };
      std::string id_text =
          rest[0] == '#' ? std::string(Trim(rest.substr(1))) : rest;
      int64_t expr_id = 0;
      Result<net::AuditClient::Subscription> sub =
          ParseCount(id_text, &expr_id)
              ? remote_->SubscribeById(static_cast<int>(expr_id), handler)
              : remote_->Subscribe(rest, now_, handler);
      if (!sub.ok()) return sub.status();
      std::printf("subscribed: sub=%lld expr=%d rank=%.6f fired=%d\n",
                  static_cast<long long>(sub->id), sub->expression_id,
                  sub->rank, sub->fired ? 1 : 0);
      return Status::Ok();
    }
    if (cmd == ".unsubscribe") {
      if (!remote_) return Status::InvalidArgument("not connected");
      int64_t sub_id = 0;
      if (words.size() != 2 || !ParseCount(words[1], &sub_id)) {
        return Status::InvalidArgument("usage: .unsubscribe <sub-id>");
      }
      AUDITDB_RETURN_IF_ERROR(remote_->Unsubscribe(sub_id));
      std::printf("unsubscribed sub=%lld\n",
                  static_cast<long long>(sub_id));
      return Status::Ok();
    }
    // While attached to a remote auditd, commands that read or mutate
    // state run against the server's stores; commands that only make
    // sense against the in-process stores are refused rather than
    // silently operating on the wrong world.
    if (remote_) {
      if (cmd == ".load") {
        return RemoteLoad(words);
      }
      if (cmd == ".audit" || cmd == ".audit-static") {
        std::string expr_text = line.substr(cmd.size());
        auto report = remote_->Audit(expr_text, now_,
                                     cmd == ".audit-static");
        if (!report.ok()) return report.status();
        std::printf("%s", report->detailed.c_str());
        return Status::Ok();
      }
      if (cmd != ".as" && cmd != ".at") {
        return Status::InvalidArgument(
            cmd + " works on the in-process stores; .disconnect first");
      }
    }
    if (cmd == ".fixture") {
      if (words.size() >= 2 && words[1] == "paper") {
        return workload::BuildPaperDatabase(&db_, now_);
      }
      if (words.size() >= 3 && words[1] == "hospital") {
        workload::HospitalConfig config;
        int64_t n;
        if (!ParseCount(words[2], &n)) {
          return Status::InvalidArgument("bad patient count");
        }
        config.num_patients = static_cast<size_t>(n);
        if (words.size() >= 4) {
          int64_t seed;
          if (ParseCount(words[3], &seed)) {
            config.seed = static_cast<uint64_t>(seed);
          }
        }
        hospital_ = config;
        return workload::PopulateHospital(&db_, config, now_);
      }
      return Status::InvalidArgument(
          "usage: .fixture paper | .fixture hospital N [seed]");
    }
    if (cmd == ".load" || cmd == ".save") {
      if (words.size() != 3) {
        return Status::InvalidArgument("usage: " + cmd + " db|log <file>");
      }
      if (cmd == ".load" && words[1] == "db") {
        return io::LoadDatabase(words[2], &db_, now_);
      }
      if (cmd == ".load" && words[1] == "log") {
        return io::LoadQueryLog(words[2], &log_);
      }
      if (cmd == ".save" && words[1] == "db") {
        return io::SaveDatabase(db_, words[2]);
      }
      if (cmd == ".save" && words[1] == "log") {
        return io::SaveQueryLog(log_, words[2]);
      }
      return Status::InvalidArgument("expected db or log");
    }
    if (cmd == ".tables") {
      for (const auto& name : db_.TableNames()) {
        auto table = db_.GetTable(name);
        if (table.ok()) {
          std::printf("%s (%zu rows)\n",
                      (*table)->schema().ToString().c_str(),
                      (*table)->size());
        }
      }
      return Status::Ok();
    }
    if (cmd == ".show") {
      if (words.size() != 2) {
        return Status::InvalidArgument("usage: .show <table>");
      }
      auto table = db_.GetTable(words[1]);
      if (!table.ok()) return table.status();
      for (const auto& row : (*table)->rows()) {
        std::printf("%s:", TidToString(row.tid).c_str());
        for (const auto& value : row.values) {
          std::printf(" %s", value.ToDisplayString().c_str());
        }
        std::printf("\n");
      }
      return Status::Ok();
    }
    if (cmd == ".log") {
      for (size_t i = 0; i < log_.size(); ++i) {
        std::printf("%s\n", log_.Entry(i).ToString().c_str());
      }
      return Status::Ok();
    }
    if (cmd == ".as") {
      if (words.size() != 4) {
        return Status::InvalidArgument(
            "usage: .as <user> <role> <purpose>");
      }
      user_ = words[1];
      role_ = words[2];
      purpose_ = words[3];
      return Status::Ok();
    }
    if (cmd == ".at") {
      if (words.size() != 2) {
        return Status::InvalidArgument("usage: .at <d/m/yyyy[:hh-mm-ss]>");
      }
      auto ts = Timestamp::Parse(words[1], Timestamp::Now());
      if (!ts.ok()) return ts.status();
      now_ = *ts;
      return Status::Ok();
    }
    if (cmd == ".workload") {
      if (words.size() < 2) {
        return Status::InvalidArgument("usage: .workload N [seed]");
      }
      int64_t n;
      if (!ParseCount(words[1], &n)) {
        return Status::InvalidArgument("bad query count");
      }
      workload::WorkloadConfig config;
      config.num_queries = static_cast<size_t>(n);
      config.start = now_;
      if (words.size() >= 3) {
        int64_t seed;
        if (ParseCount(words[2], &seed)) {
          config.seed = static_cast<uint64_t>(seed);
        }
      }
      AUDITDB_RETURN_IF_ERROR(
          workload::GenerateWorkload(&log_, config, hospital_));
      now_ = now_.AddMicros(static_cast<int64_t>(config.num_queries) *
                            config.spacing_micros);
      std::printf("logged %lld queries\n", static_cast<long long>(n));
      return Status::Ok();
    }
    if (cmd == ".audit" || cmd == ".audit-static") {
      std::string expr_text = line.substr(cmd.size());
      audit::AuditOptions options;
      options.static_only = cmd == ".audit-static";
      // Optional "--jobs N" prefix: run through the concurrent audit
      // service on N workers and print its metrics after the report.
      size_t jobs = 0;
      {
        std::istringstream rest(expr_text);
        std::string flag, count;
        if (rest >> flag && flag == "--jobs") {
          int64_t n = 0;
          if (!(rest >> count) || !ParseCount(count, &n) || n < 1) {
            return Status::InvalidArgument("usage: " + cmd +
                                           " [--jobs N] <expression>");
          }
          jobs = static_cast<size_t>(n);
          std::getline(rest, expr_text);
        }
      }
      if (jobs == 0) {
        audit::Auditor auditor(&db_, &backlog_, &log_);
        auto report = auditor.Audit(expr_text, now_, options);
        if (!report.ok()) return report.status();
        std::printf("%s", report->DetailedReport(log_).c_str());
        return Status::Ok();
      }
      service::AuditServiceOptions service_options;
      service_options.pool.num_threads = jobs;
      service::AuditService audit_service(&db_, &backlog_, &log_,
                                          service_options);
      auto report = audit_service.Audit(expr_text, now_, options);
      if (!report.ok()) return report.status();
      std::printf("%s", report->DetailedReport(log_).c_str());
      std::printf("metrics: %s\n", audit_service.MetricsJson().c_str());
      std::printf("index: %s\n",
                  audit_service.decision_cache()->stats()->ToJson().c_str());
      return Status::Ok();
    }
    if (cmd == ".granules") {
      std::string expr_text = line.substr(cmd.size());
      auto expr = audit::ParseAudit(expr_text, now_);
      if (!expr.ok()) return expr.status();
      AUDITDB_RETURN_IF_ERROR(expr->Qualify(db_.catalog()));
      auto view = audit::ComputeTargetView(*expr, db_.View(), now_);
      if (!view.ok()) return view.status();
      audit::GranuleEnumerator enumerator(*view, audit::BuildSchemes(*expr),
                                          expr->threshold);
      std::printf("|U| = %zu, |G| = %.0f\n", view->size(),
                  enumerator.CountGranules());
      for (const auto& granule : enumerator.RenderDistinct(100)) {
        std::printf("  %s\n", granule.c_str());
      }
      return Status::Ok();
    }
    return Status::InvalidArgument("unknown command: " + cmd +
                                   " (.help for help)");
  }

  Status RunQuery(const std::string& sql) {
    if (remote_) {
      auto result = remote_->ExecuteQuery(sql, user_, role_, purpose_,
                                          now_);
      if (!result.ok()) return result.status();
      std::printf("%s(%zu rows, logged remotely as #%lld)\n",
                  result->rendered.c_str(), result->num_rows,
                  static_cast<long long>(result->log_id));
      now_ = now_.AddSeconds(1);
      return Status::Ok();
    }
    auto result = ExecuteSql(sql, db_.View());
    if (!result.ok()) return result.status();
    std::printf("%s(%zu rows)\n", result->ToString().c_str(),
                result->rows.size());
    log_.Append(sql, now_, user_, role_, purpose_);
    now_ = now_.AddSeconds(1);
    return Status::Ok();
  }

  /// `.load db|log <file>` while connected: ship the dump text into the
  /// remote server's stores.
  Status RemoteLoad(const std::vector<std::string>& words) {
    if (words.size() != 3 || (words[1] != "db" && words[1] != "log")) {
      return Status::InvalidArgument("usage: .load db|log <file>");
    }
    std::ifstream in(words[2]);
    if (!in) return Status::NotFound("cannot open: " + words[2]);
    std::stringstream text;
    text << in.rdbuf();
    if (words[1] == "db") {
      return remote_->LoadDatabaseDump(text.str(), now_);
    }
    return remote_->LoadQueryLogDump(text.str());
  }

  static bool ParseCount(const std::string& text, int64_t* out) {
    if (text.empty()) return false;
    char* end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || v < 0) return false;
    *out = v;
    return true;
  }

  Database db_;
  Backlog backlog_;
  QueryLog log_;
  std::unique_ptr<net::AuditClient> remote_;
  workload::HospitalConfig hospital_;
  Timestamp now_ = Timestamp::Now();
  std::string user_ = "admin";
  std::string role_ = "auditor";
  std::string purpose_ = "investigation";
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (argc > 1) {
    std::ifstream script(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open script: %s\n", argv[1]);
      return 1;
    }
    return shell.Run(script, /*interactive=*/false);
  }
  return shell.Run(std::cin, /*interactive=*/true);
}
