#include "src/policy/sink.h"

#include <gtest/gtest.h>

#include "src/common/string_util.h"

namespace auditdb {
namespace policy {
namespace {

std::string ScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "auditdb_sink_test_" + name;
  io::Env* env = io::Env::Default();
  if (env->FileExists(dir)) {
    auto names = env->ListDir(dir);
    if (names.ok()) {
      for (const auto& entry : *names) {
        env->DeleteFile(io::JoinPath(dir, entry));
      }
    }
  }
  EXPECT_TRUE(env->CreateDirIfMissing(dir).ok());
  return dir;
}

SinkRecord SampleRecord() {
  SinkRecord record;
  record.timestamp = Timestamp(123456789);
  record.log_id = 42;
  record.rule = "clerk-exports";
  record.log_class = "export-watch";
  record.query_class = "select";
  record.user = "mallory";
  record.role = "clerk";
  record.purpose = "export";
  record.remote = "127.0.0.1";
  record.tables = "P-Health,P-Employ";
  record.sql = "SELECT pid FROM P-Health WHERE disease='[REDACTED]'";
  record.note = "cols=P-Health.disease";
  return record;
}

TEST(SinkLineTest, FormatParseRoundTrip) {
  SinkRecord record = SampleRecord();
  std::string line = FormatSinkLine(record);
  EXPECT_TRUE(StartsWith(line, "AUDIT "));

  auto parsed = ParseSinkLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->timestamp.micros(), record.timestamp.micros());
  EXPECT_EQ(parsed->log_id, record.log_id);
  EXPECT_EQ(parsed->rule, record.rule);
  EXPECT_EQ(parsed->log_class, record.log_class);
  EXPECT_EQ(parsed->query_class, record.query_class);
  EXPECT_EQ(parsed->user, record.user);
  EXPECT_EQ(parsed->role, record.role);
  EXPECT_EQ(parsed->purpose, record.purpose);
  EXPECT_EQ(parsed->remote, record.remote);
  EXPECT_EQ(parsed->tables, record.tables);
  EXPECT_EQ(parsed->sql, record.sql);
  EXPECT_EQ(parsed->note, record.note);
}

TEST(SinkLineTest, EscapingSurvivesHostileFieldBytes) {
  // Pipes and newlines in fields must not break the line structure.
  SinkRecord record = SampleRecord();
  record.user = "mal|lory";
  record.sql = "SELECT a FROM T WHERE x='pipe|new\nline'";
  record.note = "multi\nline|note";

  std::string line = FormatSinkLine(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  auto parsed = ParseSinkLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->user, record.user);
  EXPECT_EQ(parsed->sql, record.sql);
  EXPECT_EQ(parsed->note, record.note);
}

TEST(SinkLineTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseSinkLine("").ok());
  EXPECT_FALSE(ParseSinkLine("NOISE 1|2|3").ok());
  EXPECT_FALSE(ParseSinkLine("AUDIT 1|2|3").ok());  // too few fields
  std::string line = FormatSinkLine(SampleRecord());
  EXPECT_FALSE(ParseSinkLine(line + "|extra").ok());
  EXPECT_FALSE(ParseSinkLine("AUDIT x|0|a|b|c|d|e|f|g|h|i|j").ok());
  // A timestamp past int64 is an error, not a clamp to its maximum.
  EXPECT_FALSE(
      ParseSinkLine("AUDIT 99999999999999999999|0|a|b|c|d|e|f|g|h|i|j").ok());
}

TEST(FileSinkTest, AppendsParseableLines) {
  io::Env* env = io::Env::Default();
  std::string path = io::JoinPath(ScratchDir("file"), "audit.log");

  auto sink = FileSink::Open(env, path);
  ASSERT_TRUE(sink.ok()) << sink.status().message();
  EXPECT_EQ((*sink)->name(), "file");

  SinkRecord record = SampleRecord();
  ASSERT_TRUE((*sink)->Write(record).ok());
  record.log_id = 43;
  ASSERT_TRUE((*sink)->Write(record).ok());
  ASSERT_TRUE((*sink)->Flush().ok());

  auto text = env->ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  auto lines = Split(*text, '\n');
  ASSERT_GE(lines.size(), 2u);
  auto first = ParseSinkLine(std::string(lines[0]));
  auto second = ParseSinkLine(std::string(lines[1]));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->log_id, 42);
  EXPECT_EQ(second->log_id, 43);

  // Re-opening appends rather than truncating (restart keeps history).
  auto reopened = FileSink::Open(env, path);
  ASSERT_TRUE(reopened.ok());
  record.log_id = 44;
  ASSERT_TRUE((*reopened)->Write(record).ok());
  ASSERT_TRUE((*reopened)->Flush().ok());
  auto all = env->ReadFileToString(path);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(Split(*all, '\n').size(), 4u);  // 3 records + trailing empty
}

TEST(SyslogLineSinkTest, FormatsSingleLineKeyValues) {
  SinkRecord record = SampleRecord();
  std::string line = SyslogLineSink::FormatLine("auditd", record);
  EXPECT_TRUE(StartsWith(line, "<134>"));
  EXPECT_NE(line.find(" auditd: "), std::string::npos);
  EXPECT_NE(line.find("class=export-watch"), std::string::npos);
  EXPECT_NE(line.find("rule=clerk-exports"), std::string::npos);
  EXPECT_NE(line.find("qclass=select"), std::string::npos);
  EXPECT_NE(line.find("log_id=42"), std::string::npos);
  EXPECT_NE(line.find("remote=127.0.0.1"), std::string::npos);
  EXPECT_NE(line.find("sql=\"SELECT pid"), std::string::npos);
  EXPECT_NE(line.find("note=\"cols="), std::string::npos);

  // Optional fields drop out; newlines are squashed to keep one line.
  record.remote.clear();
  record.tables.clear();
  record.note = "a\nb";
  line = SyslogLineSink::FormatLine("auditd", record);
  EXPECT_EQ(line.find("remote="), std::string::npos);
  EXPECT_EQ(line.find("tables="), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("note=\"a b\""), std::string::npos);
}

TEST(SyslogLineSinkTest, WritesToFile) {
  io::Env* env = io::Env::Default();
  std::string path = io::JoinPath(ScratchDir("syslog"), "syslog.log");
  auto sink = SyslogLineSink::Open(env, path);
  ASSERT_TRUE(sink.ok()) << sink.status().message();
  ASSERT_TRUE((*sink)->Write(SampleRecord()).ok());
  ASSERT_TRUE((*sink)->Flush().ok());
  auto text = env->ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(StartsWith(*text, "<134>"));
}

TEST(MetricsSinkTest, CountsPerLogClass) {
  service::MetricsRegistry registry;
  MetricsSink sink(&registry);
  EXPECT_EQ(sink.name(), "metrics");

  SinkRecord record = SampleRecord();
  ASSERT_TRUE(sink.Write(record).ok());
  ASSERT_TRUE(sink.Write(record).ok());
  record.log_class = "other";
  ASSERT_TRUE(sink.Write(record).ok());
  ASSERT_TRUE(sink.Flush().ok());

  EXPECT_EQ(registry.counter("sink.metrics.records")->value(), 3u);
  EXPECT_EQ(registry.counter("sink.metrics.class.export-watch")->value(), 2u);
  EXPECT_EQ(registry.counter("sink.metrics.class.other")->value(), 1u);
}

}  // namespace
}  // namespace policy
}  // namespace auditdb
