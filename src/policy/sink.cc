#include "src/policy/sink.h"

#include <cstdio>
#include <mutex>

#include "src/common/string_util.h"
#include "src/io/dump.h"

namespace auditdb {
namespace policy {

namespace {

constexpr char kLinePrefix[] = "AUDIT ";
constexpr size_t kNumFields = 12;

}  // namespace

std::string FormatSinkLine(const SinkRecord& record) {
  std::vector<std::string> fields = {
      std::to_string(record.timestamp.micros()),
      std::to_string(record.log_id),
      io::EscapeField(record.rule),
      io::EscapeField(record.log_class),
      io::EscapeField(record.query_class),
      io::EscapeField(record.user),
      io::EscapeField(record.role),
      io::EscapeField(record.purpose),
      io::EscapeField(record.remote),
      io::EscapeField(record.tables),
      io::EscapeField(record.sql),
      io::EscapeField(record.note),
  };
  return kLinePrefix + Join(fields, "|");
}

Result<SinkRecord> ParseSinkLine(const std::string& line) {
  if (!StartsWith(line, kLinePrefix)) {
    return Status::ParseError("sink line lacks AUDIT prefix: '" + line + "'");
  }
  auto fields = Split(line.substr(sizeof(kLinePrefix) - 1), '|');
  if (fields.size() != kNumFields) {
    return Status::ParseError("sink line has " +
                              std::to_string(fields.size()) + " fields, want " +
                              std::to_string(kNumFields));
  }
  SinkRecord record;
  int64_t micros = 0;
  if (!ParseInt64(fields[0], &micros) ||
      !ParseInt64(fields[1], &record.log_id)) {
    return Status::ParseError("sink line has non-numeric ts/log_id");
  }
  record.timestamp = Timestamp(micros);
  auto unescape = [&](size_t i) { return io::UnescapeField(fields[i]); };
  auto rule = unescape(2);
  if (!rule.ok()) return rule.status();
  record.rule = std::move(*rule);
  auto log_class = unescape(3);
  if (!log_class.ok()) return log_class.status();
  record.log_class = std::move(*log_class);
  auto query_class = unescape(4);
  if (!query_class.ok()) return query_class.status();
  record.query_class = std::move(*query_class);
  auto user = unescape(5);
  if (!user.ok()) return user.status();
  record.user = std::move(*user);
  auto role = unescape(6);
  if (!role.ok()) return role.status();
  record.role = std::move(*role);
  auto purpose = unescape(7);
  if (!purpose.ok()) return purpose.status();
  record.purpose = std::move(*purpose);
  auto remote = unescape(8);
  if (!remote.ok()) return remote.status();
  record.remote = std::move(*remote);
  auto tables = unescape(9);
  if (!tables.ok()) return tables.status();
  record.tables = std::move(*tables);
  auto sql = unescape(10);
  if (!sql.ok()) return sql.status();
  record.sql = std::move(*sql);
  auto note = unescape(11);
  if (!note.ok()) return note.status();
  record.note = std::move(*note);
  return record;
}

// FileSink ---------------------------------------------------------------

FileSink::FileSink(std::string name, std::string path,
                   std::unique_ptr<io::WritableFile> file)
    : name_(std::move(name)), path_(std::move(path)), file_(std::move(file)) {}

Result<std::unique_ptr<FileSink>> FileSink::Open(io::Env* env,
                                                 const std::string& path,
                                                 std::string name) {
  AUDITDB_ASSIGN_OR_RETURN(auto file,
                           env->NewWritableFile(path, /*truncate=*/false));
  return std::unique_ptr<FileSink>(
      new FileSink(std::move(name), path, std::move(file)));
}

Status FileSink::Write(const SinkRecord& record) {
  std::string line = FormatSinkLine(record) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  return file_->Append(line);
}

Status FileSink::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  return file_->Sync();
}

// SyslogLineSink ---------------------------------------------------------

SyslogLineSink::SyslogLineSink(std::string name, std::string tag,
                               std::unique_ptr<io::WritableFile> file)
    : name_(std::move(name)), tag_(std::move(tag)), file_(std::move(file)) {}

Result<std::unique_ptr<SyslogLineSink>> SyslogLineSink::Open(
    io::Env* env, const std::string& path, std::string name,
    std::string tag) {
  std::unique_ptr<io::WritableFile> file;
  if (path != "-") {
    AUDITDB_ASSIGN_OR_RETURN(file,
                             env->NewWritableFile(path, /*truncate=*/false));
  }
  return std::unique_ptr<SyslogLineSink>(
      new SyslogLineSink(std::move(name), std::move(tag), std::move(file)));
}

std::string SyslogLineSink::FormatLine(const std::string& tag,
                                       const SinkRecord& record) {
  // Syslog messages are single-line; squash any embedded newlines.
  auto squash = [](std::string text) {
    for (char& c : text) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    return text;
  };
  std::string line = "<134>" + record.timestamp.ToString() + " " + tag +
                     ": class=" + squash(record.log_class) +
                     " rule=" + squash(record.rule) +
                     " qclass=" + record.query_class +
                     " log_id=" + std::to_string(record.log_id) +
                     " user=" + squash(record.user) +
                     " role=" + squash(record.role) +
                     " purpose=" + squash(record.purpose);
  if (!record.remote.empty()) line += " remote=" + squash(record.remote);
  if (!record.tables.empty()) line += " tables=" + squash(record.tables);
  line += " sql=\"" + squash(record.sql) + "\"";
  if (!record.note.empty()) line += " note=\"" + squash(record.note) + "\"";
  return line;
}

Status SyslogLineSink::Write(const SinkRecord& record) {
  std::string line = FormatLine(tag_, record) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    fputs(line.c_str(), stderr);
    return Status::Ok();
  }
  return file_->Append(line);
}

Status SyslogLineSink::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    fflush(stderr);
    return Status::Ok();
  }
  return file_->Sync();
}

// MetricsSink ------------------------------------------------------------

MetricsSink::MetricsSink(service::MetricsRegistry* registry, std::string name)
    : name_(std::move(name)), registry_(registry) {}

Status MetricsSink::Write(const SinkRecord& record) {
  registry_->counter("sink.metrics.records")->Increment();
  registry_->counter("sink.metrics.class." + record.log_class)->Increment();
  return Status::Ok();
}

}  // namespace policy
}  // namespace auditdb
