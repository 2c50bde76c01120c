#include "src/io/dump.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/backlog/backlog.h"
#include "src/engine/executor.h"
#include "src/querylog/wal.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace io {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

TEST(ValueEncodingTest, RoundTripsEveryType) {
  const Value values[] = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(-42),
      Value::Int(0),
      Value::Double(2.5),
      Value::Double(-0.125),
      Value::String("plain"),
      Value::String(""),
      Value::String("with|pipe and\\slash and\nnewline"),
      Value::Time(Ts(12345)),
  };
  for (const Value& v : values) {
    auto decoded = DecodeValue(EncodeValue(v));
    ASSERT_TRUE(decoded.ok()) << EncodeValue(v);
    EXPECT_EQ(*decoded, v) << EncodeValue(v);
  }
}

TEST(ValueEncodingTest, RejectsMalformedInput) {
  EXPECT_FALSE(DecodeValue("").ok());
  EXPECT_FALSE(DecodeValue("X:1").ok());
  EXPECT_FALSE(DecodeValue("I:notanumber").ok());
  EXPECT_FALSE(DecodeValue("I:").ok());
  EXPECT_FALSE(DecodeValue("S").ok());
  EXPECT_FALSE(DecodeValue("S:bad\\escape\\q").ok());
  EXPECT_FALSE(DecodeValue("T:xyz").ok());
}

TEST(DatabaseDumpTest, RoundTripsPaperDatabase) {
  Database original;
  ASSERT_TRUE(workload::BuildPaperDatabase(&original, Ts(1)).ok());

  std::stringstream dump;
  ASSERT_TRUE(WriteDatabaseDump(original, dump).ok());

  Database restored;
  ASSERT_TRUE(ReadDatabaseDump(dump, &restored, Ts(2)).ok());

  ASSERT_EQ(restored.TableNames(), original.TableNames());
  for (const auto& name : original.TableNames()) {
    auto a = original.GetTable(name);
    auto b = restored.GetTable(name);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ((*a)->size(), (*b)->size()) << name;
    for (size_t i = 0; i < (*a)->size(); ++i) {
      EXPECT_EQ((*a)->rows()[i], (*b)->rows()[i]) << name << " row " << i;
    }
    EXPECT_EQ((*a)->schema().ToString(), (*b)->schema().ToString());
  }

  // The restored database answers queries identically.
  auto qa = ExecuteSql("SELECT name FROM P-Personal WHERE age < 30",
                       original.View());
  auto qb = ExecuteSql("SELECT name FROM P-Personal WHERE age < 30",
                       restored.View());
  ASSERT_TRUE(qa.ok() && qb.ok());
  EXPECT_EQ(qa->rows, qb->rows);
  EXPECT_EQ(qa->lineage, qb->lineage);
}

TEST(DatabaseDumpTest, LoadFiresTriggers) {
  Database original;
  ASSERT_TRUE(workload::BuildPaperDatabase(&original, Ts(1)).ok());
  std::stringstream dump;
  ASSERT_TRUE(WriteDatabaseDump(original, dump).ok());

  Database restored;
  Backlog backlog;
  backlog.Attach(&restored);
  ASSERT_TRUE(ReadDatabaseDump(dump, &restored, Ts(7)).ok());
  EXPECT_EQ(backlog.event_count(), 12u);  // 4 rows x 3 tables
  EXPECT_EQ(backlog.EventAt(0).timestamp, Ts(7));
}

TEST(DatabaseDumpTest, RejectsGarbage) {
  Database db;
  std::stringstream bad1("GIBBERISH\n");
  EXPECT_FALSE(ReadDatabaseDump(bad1, &db, Ts(1)).ok());
  std::stringstream bad2("ROW 1|I:1\n");
  EXPECT_FALSE(ReadDatabaseDump(bad2, &db, Ts(1)).ok());
  std::stringstream bad3("TABLE T\nROWS wrong\n");
  EXPECT_FALSE(ReadDatabaseDump(bad3, &db, Ts(1)).ok());
  std::stringstream bad4("TABLE T\nCOLUMNS a:WEIRD\n");
  EXPECT_FALSE(ReadDatabaseDump(bad4, &db, Ts(1)).ok());
}

TEST(DatabaseDumpTest, CommentsAndBlankLinesIgnored) {
  Database db;
  std::stringstream dump(
      "# a comment\n"
      "\n"
      "TABLE T\n"
      "COLUMNS a:INT\n"
      "# mid-table comment\n"
      "ROW 5|I:9\n"
      "END\n");
  ASSERT_TRUE(ReadDatabaseDump(dump, &db, Ts(1)).ok());
  auto table = db.GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->size(), 1u);
  EXPECT_TRUE((*table)->Contains(5));
}

TEST(QueryLogDumpTest, RoundTrips) {
  QueryLog original;
  original.Append("SELECT a FROM T WHERE s = 'x|y'", Ts(10), "alice",
                  "doctor", "treatment");
  original.Append("SELECT b FROM U", Ts(20), "bob", "clerk", "billing");

  std::stringstream dump;
  ASSERT_TRUE(WriteQueryLogDump(original, dump).ok());

  QueryLog restored;
  ASSERT_TRUE(ReadQueryLogDump(dump, &restored).ok());
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.Entry(0).sql, "SELECT a FROM T WHERE s = 'x|y'");
  EXPECT_EQ(restored.Entry(0).user, "alice");
  EXPECT_EQ(restored.Entry(0).timestamp, Ts(10));
  EXPECT_EQ(restored.Entry(1).purpose, "billing");
}

// Strings chosen to break line-oriented, pipe-separated formats: field
// separators, escape chars, record separators (LF and CRLF), leading /
// trailing whitespace, empties, and non-ASCII bytes.
const char* const kAdversarialStrings[] = {
    "",
    "|",
    "|||",
    "\\",
    "\\|",
    "a|b\\c",
    "line1\nline2",
    "crlf\r\n",
    "\r",
    "ends in cr\r",
    "ends in space ",
    " starts with space",
    "\ttabbed\t",
    "caf\xc3\xa9 \xf0\x9f\x94\x92",
    "ROW 1|I:5",      // looks like a dump directive
    "\\n not a newline",
};

TEST(FieldEscapingTest, RoundTripsAdversarialStrings) {
  for (const char* raw : kAdversarialStrings) {
    std::string escaped = EscapeField(raw);
    // Escaped text never contains a bare separator or record terminator.
    EXPECT_EQ(escaped.find('|'), std::string::npos) << raw;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << raw;
    EXPECT_EQ(escaped.find('\r'), std::string::npos) << raw;
    auto unescaped = UnescapeField(escaped);
    ASSERT_TRUE(unescaped.ok()) << unescaped.status().ToString();
    EXPECT_EQ(*unescaped, raw);
  }
}

TEST(FieldEscapingTest, SplitRespectsEscapedPipes) {
  std::vector<std::string> fields(std::begin(kAdversarialStrings),
                                  std::end(kAdversarialStrings));
  std::string joined;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) joined += '|';
    joined += EscapeField(fields[i]);
  }
  auto parts = SplitEscapedFields(joined);
  ASSERT_EQ(parts.size(), fields.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    auto unescaped = UnescapeField(parts[i]);
    ASSERT_TRUE(unescaped.ok()) << parts[i];
    EXPECT_EQ(*unescaped, fields[i]) << i;
  }
}

TEST(FieldEscapingTest, RejectsInvalidEscapes) {
  EXPECT_FALSE(UnescapeField("trailing\\").ok());
  EXPECT_FALSE(UnescapeField("bad\\q").ok());
  EXPECT_TRUE(UnescapeField("fine\\\\").ok());
}

TEST(DatabaseDumpTest, RoundTripsAdversarialStringValues) {
  Database original;
  std::vector<Column> columns = {{"id", ValueType::kInt},
                                 {"s", ValueType::kString}};
  ASSERT_TRUE(original.CreateTable(TableSchema("T", columns)).ok());
  int64_t id = 1;
  for (const char* raw : kAdversarialStrings) {
    ASSERT_TRUE(
        original.Insert("T", {Value::Int(id++), Value::String(raw)}, Ts(1))
            .ok())
        << raw;
  }

  std::stringstream dump;
  ASSERT_TRUE(WriteDatabaseDump(original, dump).ok());
  Database restored;
  ASSERT_TRUE(ReadDatabaseDump(dump, &restored, Ts(2)).ok());
  auto a = original.GetTable("T");
  auto b = restored.GetTable("T");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ((*a)->size(), (*b)->size());
  for (size_t i = 0; i < (*a)->size(); ++i) {
    EXPECT_EQ((*a)->rows()[i], (*b)->rows()[i]) << "row " << i;
  }
}

TEST(QueryLogDumpTest, RoundTripsAdversarialEntries) {
  QueryLog original;
  for (const char* raw : kAdversarialStrings) {
    original.Append(raw, Ts(10), std::string("user") + raw, raw, raw);
  }

  std::stringstream dump;
  ASSERT_TRUE(WriteQueryLogDump(original, dump).ok());
  QueryLog restored;
  ASSERT_TRUE(ReadQueryLogDump(dump, &restored).ok());
  ASSERT_EQ(restored.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.Entry(i).sql, original.Entry(i).sql) << i;
    EXPECT_EQ(restored.Entry(i).user, original.Entry(i).user) << i;
    EXPECT_EQ(restored.Entry(i).role, original.Entry(i).role) << i;
    EXPECT_EQ(restored.Entry(i).purpose, original.Entry(i).purpose)
        << i;
  }
}

TEST(QueryLogDumpTest, ReadsCrlfTerminatedDumps) {
  // A dump that passed through a CRLF-translating transport must load
  // identically: the reader strips line terminators, not field content.
  QueryLog original;
  original.Append("SELECT a FROM T WHERE s = 'x y '", Ts(10), "alice",
                  "doctor", "treatment");
  std::stringstream dump;
  ASSERT_TRUE(WriteQueryLogDump(original, dump).ok());
  std::string text = dump.str();
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  std::stringstream crlf_dump(crlf);
  QueryLog restored;
  ASSERT_TRUE(ReadQueryLogDump(crlf_dump, &restored).ok());
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.Entry(0).sql, original.Entry(0).sql);
}

TEST(QueryLogDumpTest, RejectsWrongFieldCount) {
  QueryLog log;
  std::stringstream bad("QUERY 1|2|3\n");
  EXPECT_FALSE(ReadQueryLogDump(bad, &log).ok());
}

TEST(QueryLogDumpTest, RejectsMalformedQueryId) {
  QueryLog log;
  std::stringstream bad("QUERY not-an-id|5|u|r|p|SELECT 1\n");
  Status read = ReadQueryLogDump(bad, &log);
  EXPECT_EQ(read.code(), StatusCode::kParseError) << read.ToString();
  EXPECT_EQ(log.size(), 0u);
}

TEST(QueryLogDumpTest, QueryLinesAreWalQueryPayloads) {
  // One codec for query records: a dump line is "QUERY " plus the WAL
  // payload of the same entry, byte for byte.
  QueryLog log;
  log.Append("SELECT a FROM T WHERE s = 'p|q\\r'", Ts(10), "al|ice",
             "doc\ntor", "treat ");
  log.Append("SELECT b FROM T", Ts(11), "bob", "nurse", "");
  std::stringstream dump;
  ASSERT_TRUE(WriteQueryLogDump(log, dump).ok());
  std::string expected;
  for (size_t i = 0; i < log.size(); ++i) {
    expected += "QUERY " + querylog::EncodeQueryWalPayload(log.Entry(i)) + "\n";
  }
  EXPECT_EQ(dump.str(), expected);
}

TEST(FileWrappersTest, SaveAndLoad) {
  Database original;
  ASSERT_TRUE(workload::BuildPaperDatabase(&original, Ts(1)).ok());
  QueryLog log;
  log.Append("SELECT name FROM P-Personal", Ts(5), "u", "r", "p");

  std::string db_path = ::testing::TempDir() + "/auditdb_dump_test.db";
  std::string log_path = ::testing::TempDir() + "/auditdb_dump_test.log";
  ASSERT_TRUE(io::SaveDatabase(original, db_path).ok());
  ASSERT_TRUE(io::SaveQueryLog(log, log_path).ok());

  Database restored;
  QueryLog restored_log;
  ASSERT_TRUE(io::LoadDatabase(db_path, &restored, Ts(2)).ok());
  ASSERT_TRUE(io::LoadQueryLog(log_path, &restored_log).ok());
  EXPECT_EQ(restored.TableNames().size(), 3u);
  EXPECT_EQ(restored_log.size(), 1u);

  EXPECT_FALSE(io::LoadDatabase("/nonexistent/nope", &restored, Ts(2)).ok());
}

// Save must be all-or-nothing: any injected IO failure (ENOSPC-style
// short write, failed fsync, failed rename) returns a non-OK Status
// and leaves the previous dump intact — a failed save can never
// truncate or tear the only copy of the audit trail.
TEST(FileWrappersTest, EveryInjectedSaveFaultLeavesOldDumpIntact) {
  Database db;
  ASSERT_TRUE(workload::BuildPaperDatabase(&db, Ts(1)).ok());
  QueryLog log;
  log.Append("SELECT name FROM P-Personal", Ts(5), "u", "r", "p");
  std::string dir = ::testing::TempDir() + "auditdb_dump_fault_test";
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir).ok());
  std::string db_path = JoinPath(dir, "fault.db");
  std::string log_path = JoinPath(dir, "fault.log");

  // Record the schedules and the good contents.
  FaultInjectingEnv probe(Env::Default());
  ASSERT_TRUE(SaveDatabase(&probe, db, db_path).ok());
  const int64_t db_schedule = probe.ops_recorded();
  probe.Reset();
  ASSERT_TRUE(SaveQueryLog(&probe, log, log_path).ok());
  const int64_t log_schedule = probe.ops_recorded();
  auto good_db = Env::Default()->ReadFileToString(db_path);
  auto good_log = Env::Default()->ReadFileToString(log_path);
  ASSERT_TRUE(good_db.ok());
  ASSERT_TRUE(good_log.ok());

  for (int64_t op = 0; op < db_schedule; ++op) {
    for (size_t partial : {size_t{0}, size_t{16}}) {
      FaultInjectingEnv env(Env::Default());
      env.FailAtOp(op, partial, "disk full");
      Database changed;  // saving a different db must not clobber
      EXPECT_FALSE(SaveDatabase(&env, changed, db_path).ok())
          << "op " << op;
      EXPECT_EQ(*Env::Default()->ReadFileToString(db_path), *good_db);
    }
  }
  for (int64_t op = 0; op < log_schedule; ++op) {
    FaultInjectingEnv env(Env::Default());
    env.FailAtOp(op, /*partial_bytes=*/16, "disk full");
    QueryLog changed;
    EXPECT_FALSE(SaveQueryLog(&env, changed, log_path).ok()) << "op " << op;
    EXPECT_EQ(*Env::Default()->ReadFileToString(log_path), *good_log);
  }

  // The dumps still load after the fault storm.
  Database restored;
  QueryLog restored_log;
  EXPECT_TRUE(LoadDatabase(db_path, &restored, Ts(2)).ok());
  EXPECT_TRUE(LoadQueryLog(log_path, &restored_log).ok());
}

TEST(FileWrappersTest, LoadSurfacesCorruptDumpsAsStatuses) {
  std::string path = ::testing::TempDir() + "auditdb_dump_corrupt.log";
  ASSERT_TRUE(AtomicWriteFile(Env::Default(), path,
                              "QUERY 1|2|u|r|p|sql\nQUERY mangled\n")
                  .ok());
  QueryLog restored;
  Status loaded = LoadQueryLog(path, &restored);
  EXPECT_EQ(loaded.code(), StatusCode::kParseError);

  Database db;
  ASSERT_TRUE(
      AtomicWriteFile(Env::Default(), path, "GARBAGE line\n").ok());
  EXPECT_EQ(LoadDatabase(path, &db, Ts(1)).code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace io
}  // namespace auditdb
