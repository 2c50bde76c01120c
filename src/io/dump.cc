#include "src/io/dump.h"

#include <sstream>

#include "src/common/string_util.h"
#include "src/io/file.h"
#include "src/querylog/wal.h"

namespace auditdb {
namespace io {

namespace {

/// The dump payload view of a raw getline() result: the line terminator
/// (including the \r of a CRLF file) and leading indentation go, but
/// trailing spaces stay — they may belong to the last field. Full
/// Trim() here would corrupt fields that legitimately end in
/// whitespace (escaped \r never reaches this path).
std::string_view PayloadLine(const std::string& line) {
  std::string_view view(line);
  while (!view.empty() &&
         (view.back() == '\n' || view.back() == '\r')) {
    view.remove_suffix(1);
  }
  while (!view.empty() && (view.front() == ' ' || view.front() == '\t')) {
    view.remove_prefix(1);
  }
  return view;
}

Result<ValueType> ParseTypeName(const std::string& name) {
  if (name == "STRING") return ValueType::kString;
  if (name == "INT") return ValueType::kInt;
  if (name == "DOUBLE") return ValueType::kDouble;
  if (name == "BOOL") return ValueType::kBool;
  if (name == "TIMESTAMP") return ValueType::kTimestamp;
  if (name == "NULL") return ValueType::kNull;
  return Status::ParseError("unknown column type: " + name);
}

}  // namespace

std::string EscapeField(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '|':
        out += "\\p";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeField(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (i + 1 >= text.size()) {
      return Status::ParseError("dangling escape in dump field");
    }
    ++i;
    switch (text[i]) {
      case '\\':
        out += '\\';
        break;
      case 'p':
        out += '|';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::ParseError(std::string("unknown escape \\") +
                                  text[i]);
    }
  }
  return out;
}

std::vector<std::string> SplitEscapedFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      current += line[i];
      current += line[i + 1];
      ++i;
      continue;
    }
    if (line[i] == '|') {
      fields.push_back(std::move(current));
      current.clear();
      continue;
    }
    current += line[i];
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string EncodeValue(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "N";
    case ValueType::kBool:
      return value.bool_value() ? "B:1" : "B:0";
    case ValueType::kInt:
      return "I:" + std::to_string(value.int_value());
    case ValueType::kDouble: {
      std::ostringstream out;
      out.precision(17);
      out << "D:" << value.double_value();
      return out.str();
    }
    case ValueType::kString:
      return "S:" + EscapeField(value.string_value());
    case ValueType::kTimestamp:
      return "T:" + std::to_string(value.time_value().micros());
  }
  return "N";
}

Result<Value> DecodeValue(const std::string& text) {
  if (text == "N") return Value::Null();
  if (text.size() < 2 || text[1] != ':') {
    return Status::ParseError("malformed value encoding: " + text);
  }
  std::string payload = text.substr(2);
  switch (text[0]) {
    case 'B':
      return Value::Bool(payload == "1");
    case 'I': {
      int64_t v;
      if (!ParseInt64(payload, &v)) {
        return Status::ParseError("bad INT payload: " + payload);
      }
      return Value::Int(v);
    }
    case 'D': {
      double v;
      if (!ParseDouble(payload, &v)) {
        return Status::ParseError("bad DOUBLE payload: " + payload);
      }
      return Value::Double(v);
    }
    case 'S': {
      auto raw = UnescapeField(payload);
      if (!raw.ok()) return raw.status();
      return Value::String(std::move(*raw));
    }
    case 'T': {
      int64_t v;
      if (!ParseInt64(payload, &v)) {
        return Status::ParseError("bad TIMESTAMP payload: " + payload);
      }
      return Value::Time(Timestamp(v));
    }
    default:
      return Status::ParseError("unknown value tag in: " + text);
  }
}

Status WriteDatabaseDump(const Database& db, std::ostream& out) {
  for (const auto& name : db.TableNames()) {
    auto table = db.GetTable(name);
    if (!table.ok()) return table.status();
    out << "TABLE " << name << "\n";
    out << "COLUMNS ";
    const auto& schema = (*table)->schema();
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (i > 0) out << ",";
      out << schema.column(i).name << ":"
          << ValueTypeName(schema.column(i).type);
    }
    out << "\n";
    for (const auto& row : (*table)->rows()) {
      out << "ROW " << row.tid;
      for (const auto& value : row.values) {
        out << "|" << EncodeValue(value);
      }
      out << "\n";
    }
    out << "END\n";
  }
  return out.good() ? Status::Ok()
                    : Status::Internal("write failure in database dump");
}

Status ReadDatabaseDump(std::istream& in, Database* db, Timestamp ts) {
  std::string line;
  std::string current_table;
  while (std::getline(in, line)) {
    std::string_view payload = PayloadLine(line);
    std::string_view trimmed = Trim(payload);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "TABLE ")) {
      current_table = std::string(trimmed.substr(6));
      // COLUMNS line must follow.
      if (!std::getline(in, line)) {
        return Status::ParseError("dump truncated after TABLE");
      }
      std::string_view columns_line = Trim(line);
      if (!StartsWith(columns_line, "COLUMNS ")) {
        return Status::ParseError("expected COLUMNS after TABLE " +
                                  current_table);
      }
      std::vector<Column> columns;
      for (const auto& piece :
           Split(std::string(columns_line.substr(8)), ',')) {
        auto parts = Split(piece, ':');
        if (parts.size() != 2) {
          return Status::ParseError("malformed column spec: " + piece);
        }
        auto type = ParseTypeName(parts[1]);
        if (!type.ok()) return type.status();
        columns.push_back(Column{parts[0], *type});
      }
      AUDITDB_RETURN_IF_ERROR(
          db->CreateTable(TableSchema(current_table, std::move(columns))));
      continue;
    }
    if (StartsWith(payload, "ROW ")) {
      if (current_table.empty()) {
        return Status::ParseError("ROW outside of TABLE block");
      }
      // Split the untrimmed payload: the last value may end in spaces.
      auto fields = SplitEscapedFields(std::string(payload.substr(4)));
      if (fields.empty()) {
        return Status::ParseError("empty ROW line");
      }
      Tid tid;
      if (!ParseInt64(fields[0], &tid)) {
        return Status::ParseError("bad tid: " + fields[0]);
      }
      std::vector<Value> values;
      for (size_t i = 1; i < fields.size(); ++i) {
        auto value = DecodeValue(fields[i]);
        if (!value.ok()) return value.status();
        values.push_back(std::move(*value));
      }
      AUDITDB_RETURN_IF_ERROR(
          db->InsertWithTid(current_table, tid, std::move(values), ts));
      continue;
    }
    if (trimmed == "END") {
      current_table.clear();
      continue;
    }
    if (StartsWith(trimmed, "QUERY ")) {
      return Status::ParseError(
          "QUERY line in database dump (use ReadQueryLogDump)");
    }
    return Status::ParseError("unrecognized dump line: " +
                              std::string(trimmed));
  }
  return Status::Ok();
}

// QUERY lines carry the query WAL's record payload, so the dump, the
// WAL and replication share one codec for query records.
Status WriteQueryLogDump(const QueryLog& log, std::ostream& out) {
  const size_t num_logged = log.size();
  for (size_t i = 0; i < num_logged; ++i) {
    out << "QUERY " << querylog::EncodeQueryWalPayload(log.Entry(i)) << "\n";
  }
  return out.good() ? Status::Ok()
                    : Status::Internal("write failure in query-log dump");
}

Status ReadQueryLogDump(std::istream& in, QueryLog* log) {
  std::string line;
  while (std::getline(in, line)) {
    std::string_view payload = PayloadLine(line);
    std::string_view trimmed = Trim(payload);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (!StartsWith(payload, "QUERY ")) {
      return Status::ParseError("unrecognized query-log line: " +
                                std::string(trimmed));
    }
    // Decode the untrimmed payload: the SQL field may end in spaces.
    auto entry =
        querylog::DecodeQueryWalPayload(std::string(payload.substr(6)));
    if (!entry.ok()) return entry.status();
    log->Append(std::move(entry->sql), entry->timestamp,
                std::move(entry->user), std::move(entry->role),
                std::move(entry->purpose));
  }
  return Status::Ok();
}

Status SaveDatabase(const Database& db, const std::string& path) {
  return SaveDatabase(Env::Default(), db, path);
}

Status SaveDatabase(Env* env, const Database& db, const std::string& path) {
  std::ostringstream out;
  AUDITDB_RETURN_IF_ERROR(WriteDatabaseDump(db, out));
  return AtomicWriteFile(env, path, out.str());
}

Status LoadDatabase(const std::string& path, Database* db, Timestamp ts) {
  return LoadDatabase(Env::Default(), path, db, ts);
}

Status LoadDatabase(Env* env, const std::string& path, Database* db,
                    Timestamp ts) {
  AUDITDB_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));
  std::istringstream in(text);
  return ReadDatabaseDump(in, db, ts);
}

Status SaveQueryLog(const QueryLog& log, const std::string& path) {
  return SaveQueryLog(Env::Default(), log, path);
}

Status SaveQueryLog(Env* env, const QueryLog& log, const std::string& path) {
  std::ostringstream out;
  AUDITDB_RETURN_IF_ERROR(WriteQueryLogDump(log, out));
  return AtomicWriteFile(env, path, out.str());
}

Status LoadQueryLog(const std::string& path, QueryLog* log) {
  return LoadQueryLog(Env::Default(), path, log);
}

Status LoadQueryLog(Env* env, const std::string& path, QueryLog* log) {
  AUDITDB_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));
  std::istringstream in(text);
  return ReadQueryLogDump(in, log);
}

}  // namespace io
}  // namespace auditdb
