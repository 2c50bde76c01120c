#include "src/querylog/wal.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/io/checksum.h"
#include "src/io/file.h"

namespace auditdb {
namespace querylog {
namespace {

using io::Env;
using io::JoinPath;

std::string ScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "auditdb_wal_test_" + name;
  Env* env = Env::Default();
  if (env->FileExists(dir)) {
    auto names = env->ListDir(dir);
    if (names.ok()) {
      for (const auto& entry : *names) {
        env->DeleteFile(JoinPath(dir, entry));
      }
    }
  }
  EXPECT_TRUE(env->CreateDirIfMissing(dir).ok());
  return dir;
}

LoggedQuery MakeEntry(int64_t id) {
  LoggedQuery entry;
  entry.id = id;
  entry.timestamp = Timestamp(1000000 + id);
  entry.user = "user" + std::to_string(id);
  entry.role = "Nurse";
  entry.purpose = "treatment";
  entry.sql = "SELECT name FROM P-Personal WHERE pid = " + std::to_string(id);
  return entry;
}

struct Replayed {
  std::vector<std::pair<WalRecordType, std::string>> records;
  WalReplayStats stats;
};

Replayed Replay(Env* env, const std::string& path) {
  Replayed out;
  Status status = ReplayWal(
      env, path,
      [&](WalRecordType type, const std::string& payload) {
        out.records.emplace_back(type, payload);
        return Status::Ok();
      },
      &out.stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST(WalPayloadTest, QueryPayloadRoundTripsHostileStrings) {
  LoggedQuery entry = MakeEntry(7);
  entry.sql = "SELECT '|' FROM t WHERE x = 'pipe|newline\nand\\back\r'";
  entry.user = "alice|bob";
  entry.purpose = "care\nplan";
  auto decoded = DecodeQueryWalPayload(EncodeQueryWalPayload(entry));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, entry.id);
  EXPECT_EQ(decoded->timestamp.micros(), entry.timestamp.micros());
  EXPECT_EQ(decoded->user, entry.user);
  EXPECT_EQ(decoded->role, entry.role);
  EXPECT_EQ(decoded->purpose, entry.purpose);
  EXPECT_EQ(decoded->sql, entry.sql);
}

TEST(WalPayloadTest, MalformedPayloadsAreRejected) {
  EXPECT_FALSE(DecodeQueryWalPayload("").ok());
  EXPECT_FALSE(DecodeQueryWalPayload("1|2|3").ok());
  EXPECT_FALSE(DecodeQueryWalPayload("x|2|u|r|p|sql").ok());
  EXPECT_FALSE(DecodeQueryWalPayload("1|y|u|r|p|sql").ok());
  EXPECT_FALSE(DecodeQueryWalPayload("1|2|u|r|p|sql|extra").ok());
}

TEST(WalTest, AppendsReplayInOrder) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("replay"), "wal");
  auto writer = WalWriter::Open(env, path, WalWriterOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->Append(WalRecordType::kCheckpoint, "1|0").ok());
  for (int64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE((*writer)
                    ->Append(WalRecordType::kQuery,
                             EncodeQueryWalPayload(MakeEntry(id)))
                    .ok());
  }
  EXPECT_EQ((*writer)->records_written(), 21u);
  ASSERT_TRUE((*writer)->Close().ok());

  Replayed replayed = Replay(env, path);
  ASSERT_EQ(replayed.records.size(), 21u);
  EXPECT_EQ(replayed.stats.records_recovered, 21u);
  EXPECT_EQ(replayed.stats.torn_tail_bytes, 0u);
  EXPECT_EQ(replayed.records[0].first, WalRecordType::kCheckpoint);
  for (int64_t id = 1; id <= 20; ++id) {
    auto decoded = DecodeQueryWalPayload(replayed.records[id].second);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->id, id);
    EXPECT_EQ(decoded->sql, MakeEntry(id).sql);
  }
}

TEST(WalTest, MissingFileReplaysEmpty) {
  Replayed replayed =
      Replay(Env::Default(), JoinPath(ScratchDir("missing"), "nope"));
  EXPECT_TRUE(replayed.records.empty());
  EXPECT_EQ(replayed.stats.torn_tail_bytes, 0u);
}

// Every possible torn tail: cut the file at every byte boundary and
// check the replay recovers exactly the records that are fully present,
// flags the rest as torn, and never reports an error or a corrupt
// record.
TEST(WalTest, EveryTornTailRecoversTheValidPrefix) {
  Env* env = Env::Default();
  std::string dir = ScratchDir("torn");
  std::string path = JoinPath(dir, "wal");
  std::vector<std::string> frames;
  std::string full;
  frames.push_back(EncodeWalRecord(WalRecordType::kCheckpoint, "1|0"));
  for (int64_t id = 1; id <= 5; ++id) {
    frames.push_back(EncodeWalRecord(
        WalRecordType::kQuery, EncodeQueryWalPayload(MakeEntry(id))));
  }
  for (const auto& frame : frames) full += frame;

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    ASSERT_TRUE(io::AtomicWriteFile(env, path, full.substr(0, cut)).ok());
    size_t expect_records = 0;
    size_t consumed = 0;
    while (expect_records < frames.size() &&
           consumed + frames[expect_records].size() <= cut) {
      consumed += frames[expect_records].size();
      ++expect_records;
    }
    Replayed replayed = Replay(env, path);
    EXPECT_EQ(replayed.stats.records_recovered, expect_records)
        << "cut at byte " << cut;
    EXPECT_EQ(replayed.stats.valid_prefix_bytes, consumed);
    EXPECT_EQ(replayed.stats.torn_tail_bytes, cut - consumed);
    // Recovered payloads are byte-identical to what was framed.
    for (size_t i = 0; i < replayed.records.size(); ++i) {
      EXPECT_EQ(EncodeWalRecord(replayed.records[i].first,
                                replayed.records[i].second),
                frames[i]);
    }
  }
}

// Flip every single byte of a WAL holding one record of each type: the
// replay must never deliver a corrupted record. (A flip in a later
// record must leave the earlier intact ones recoverable.)
TEST(WalTest, EveryByteFlipIsDetectedForEveryRecordType) {
  Env* env = Env::Default();
  std::string dir = ScratchDir("flip");
  std::string path = JoinPath(dir, "wal");
  const std::string checkpoint_frame =
      EncodeWalRecord(WalRecordType::kCheckpoint, "3|17");
  const std::string query_frame = EncodeWalRecord(
      WalRecordType::kQuery, EncodeQueryWalPayload(MakeEntry(1)));
  const std::string full = checkpoint_frame + query_frame;

  for (size_t i = 0; i < full.size(); ++i) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    ASSERT_TRUE(io::AtomicWriteFile(env, path, corrupt).ok());
    Replayed replayed = Replay(env, path);
    const size_t intact =
        i < checkpoint_frame.size() ? 0 : 1;  // records before the flip
    ASSERT_LE(replayed.records.size(), intact + 0u) << "flipped byte " << i;
    EXPECT_EQ(replayed.stats.records_recovered, intact);
    EXPECT_GT(replayed.stats.torn_tail_bytes, 0u);
    for (size_t r = 0; r < replayed.records.size(); ++r) {
      EXPECT_EQ(EncodeWalRecord(replayed.records[r].first,
                                replayed.records[r].second),
                r == 0 ? checkpoint_frame : query_frame);
    }
  }
}

TEST(WalTest, UnknownRecordTypeEndsReplay) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("unknown"), "wal");
  // A frame with a valid CRC but an unknown type byte: CRC passes, the
  // type gate stops the replay (forward-incompatible records are not
  // silently skipped — recovery refuses to guess).
  std::string payload = "whatever";
  std::string body;
  body.push_back('Z');
  body += payload;
  std::string frame;
  uint32_t masked = io::MaskCrc(io::Crc32c(body));
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((masked >> shift) & 0xff));
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((len >> shift) & 0xff));
  }
  frame += body;
  std::string full =
      EncodeWalRecord(WalRecordType::kCheckpoint, "1|0") + frame;
  ASSERT_TRUE(io::AtomicWriteFile(env, path, full).ok());
  Replayed replayed = Replay(env, path);
  EXPECT_EQ(replayed.stats.records_recovered, 1u);
  EXPECT_EQ(replayed.stats.torn_tail_bytes, frame.size());
}

TEST(WalTest, InsaneLengthFieldDoesNotAllocate) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("length"), "wal");
  std::string frame;
  for (int i = 0; i < 4; ++i) frame.push_back('\x11');  // garbage CRC
  for (int i = 0; i < 4; ++i) frame.push_back('\xff');  // len ~4 GiB
  frame.push_back('Q');
  frame += "tiny";
  ASSERT_TRUE(io::AtomicWriteFile(env, path, frame).ok());
  Replayed replayed = Replay(env, path);
  EXPECT_EQ(replayed.stats.records_recovered, 0u);
  EXPECT_EQ(replayed.stats.torn_tail_bytes, frame.size());
}

TEST(WalTest, TruncateToValidPrefixEnablesCleanReopen) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("reopen"), "wal");
  {
    auto writer = WalWriter::Open(env, path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    for (int64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE((*writer)
                      ->Append(WalRecordType::kQuery,
                               EncodeQueryWalPayload(MakeEntry(id)))
                      .ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // Tear the tail mid-record.
  auto size = env->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env->TruncateFile(path, *size - 5).ok());

  Replayed torn = Replay(env, path);
  EXPECT_EQ(torn.stats.records_recovered, 2u);
  ASSERT_TRUE(TruncateWalToValidPrefix(env, path, torn.stats).ok());
  EXPECT_EQ(*env->GetFileSize(path), torn.stats.valid_prefix_bytes);

  // Append after the recovered prefix; the log replays old + new.
  {
    auto writer =
        WalWriter::Open(env, path, WalWriterOptions{}, /*truncate=*/false);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ((*writer)->bytes_written(), torn.stats.valid_prefix_bytes);
    ASSERT_TRUE((*writer)
                    ->Append(WalRecordType::kQuery,
                             EncodeQueryWalPayload(MakeEntry(3)))
                    .ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  Replayed repaired = Replay(env, path);
  EXPECT_EQ(repaired.stats.records_recovered, 3u);
  EXPECT_EQ(repaired.stats.torn_tail_bytes, 0u);
}

TEST(WalTest, OversizedPayloadIsRefused) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("oversize"), "wal");
  auto writer = WalWriter::Open(env, path, WalWriterOptions{});
  ASSERT_TRUE(writer.ok());
  std::string huge(65u << 20, 'x');
  EXPECT_EQ((*writer)->Append(WalRecordType::kQuery, huge).code(),
            StatusCode::kOutOfRange);
}

// The shipping side of replication tails the live WAL with a WalCursor
// while recovery may concurrently truncate the torn tail. The cursor
// must deliver every valid record exactly once, report a torn tail as
// "poll again" (a truncate may still repair it), and detect a file that
// shrank below its position as an unrecoverable loss of position.
TEST(WalCursorTest, TailsALiveWriterRecordByRecord) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("cursor_tail"), "wal");
  WalCursor cursor(env, path);
  WalRecordType type;
  std::string payload, framed;

  // Nothing yet (missing file) — clean "poll again".
  auto polled = cursor.Poll(&type, &payload);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_FALSE(*polled);

  auto writer = WalWriter::Open(env, path, WalWriterOptions{});
  ASSERT_TRUE(writer.ok());
  for (int64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE((*writer)
                    ->Append(WalRecordType::kQuery,
                             EncodeQueryWalPayload(MakeEntry(id)))
                    .ok());
    polled = cursor.Poll(&type, &payload, &framed);
    ASSERT_TRUE(polled.ok());
    ASSERT_TRUE(*polled);
    EXPECT_EQ(type, WalRecordType::kQuery);
    auto decoded = DecodeQueryWalPayload(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->id, id);
    // The framed bytes are what replication ships: re-decoding them
    // must yield the identical record.
    EXPECT_EQ(framed, EncodeWalRecord(WalRecordType::kQuery, payload));
  }
  EXPECT_EQ(cursor.records_read(), 5u);
  // Caught up: clean EOF is "poll again", not an error.
  polled = cursor.Poll(&type, &payload);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(*polled);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalCursorTest, TruncateRaceRepairsATornTailUnderTheCursor) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("cursor_race"), "wal");
  {
    auto writer = WalWriter::Open(env, path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    for (int64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE((*writer)
                      ->Append(WalRecordType::kQuery,
                               EncodeQueryWalPayload(MakeEntry(id)))
                      .ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  // Tear the last record mid-frame (a crash between write and sync).
  auto size = env->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env->TruncateFile(path, *size - 5).ok());

  WalCursor cursor(env, path);
  WalRecordType type;
  std::string payload;
  for (int64_t id = 1; id <= 2; ++id) {
    auto polled = cursor.Poll(&type, &payload);
    ASSERT_TRUE(polled.ok());
    ASSERT_TRUE(*polled);
  }
  // At the torn record: "poll again" — never an error, because recovery
  // may still truncate the garbage out from under us.
  auto torn = cursor.Poll(&type, &payload);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_FALSE(*torn);

  // Recovery truncates to the valid prefix (exactly the cursor's
  // position) and a writer appends a fresh record 3.
  Replayed replayed = Replay(env, path);
  ASSERT_TRUE(TruncateWalToValidPrefix(env, path, replayed.stats).ok());
  EXPECT_EQ(cursor.offset(), replayed.stats.valid_prefix_bytes);
  {
    auto writer =
        WalWriter::Open(env, path, WalWriterOptions{}, /*truncate=*/false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)
                    ->Append(WalRecordType::kQuery,
                             EncodeQueryWalPayload(MakeEntry(3)))
                    .ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto repaired = cursor.Poll(&type, &payload);
  ASSERT_TRUE(repaired.ok());
  ASSERT_TRUE(*repaired);
  auto decoded = DecodeQueryWalPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 3);
  EXPECT_EQ(cursor.records_read(), 3u);
}

TEST(WalCursorTest, FileShrunkBelowTheCursorDemandsAResync) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("cursor_shrunk"), "wal");
  {
    auto writer = WalWriter::Open(env, path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    for (int64_t id = 1; id <= 4; ++id) {
      ASSERT_TRUE((*writer)
                      ->Append(WalRecordType::kQuery,
                               EncodeQueryWalPayload(MakeEntry(id)))
                      .ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  WalCursor cursor(env, path);
  WalRecordType type;
  std::string payload;
  for (int64_t id = 1; id <= 4; ++id) {
    auto polled = cursor.Poll(&type, &payload);
    ASSERT_TRUE(polled.ok());
    ASSERT_TRUE(*polled);
  }
  // A checkpoint rotated the WAL: the file restarts shorter than the
  // cursor's offset. The reader's position is meaningless now.
  {
    auto writer = WalWriter::Open(env, path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(WalRecordType::kCheckpoint, "2|4").ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto shrunk = cursor.Poll(&type, &payload);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.status().code(), StatusCode::kOutOfRange);
  // Seek re-syncs onto the rotated file from the top.
  cursor.Seek(path, 0);
  auto fresh = cursor.Poll(&type, &payload);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(*fresh);
  EXPECT_EQ(type, WalRecordType::kCheckpoint);
  EXPECT_EQ(payload, "2|4");
}

// A checkpoint record mid-stream (WAL reopened after recovery, or a
// primary that checkpointed between shipped records) is a marker, not a
// mutation: replay and the cursor both deliver it in order and keep
// going — queries after it must not be lost.
TEST(WalTest, CheckpointRecordMidStreamReplaysInOrder) {
  Env* env = Env::Default();
  std::string path = JoinPath(ScratchDir("ckpt_mid"), "wal");
  auto writer = WalWriter::Open(env, path, WalWriterOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kCheckpoint, "1|0").ok());
  ASSERT_TRUE((*writer)
                  ->Append(WalRecordType::kQuery,
                           EncodeQueryWalPayload(MakeEntry(1)))
                  .ok());
  // Mid-stream checkpoint marker.
  ASSERT_TRUE((*writer)->Append(WalRecordType::kCheckpoint, "1|1").ok());
  ASSERT_TRUE((*writer)
                  ->Append(WalRecordType::kQuery,
                           EncodeQueryWalPayload(MakeEntry(2)))
                  .ok());
  ASSERT_TRUE((*writer)->Close().ok());

  Replayed replayed = Replay(env, path);
  ASSERT_EQ(replayed.records.size(), 4u);
  EXPECT_EQ(replayed.records[0].first, WalRecordType::kCheckpoint);
  EXPECT_EQ(replayed.records[1].first, WalRecordType::kQuery);
  EXPECT_EQ(replayed.records[2].first, WalRecordType::kCheckpoint);
  EXPECT_EQ(replayed.records[2].second, "1|1");
  EXPECT_EQ(replayed.records[3].first, WalRecordType::kQuery);
  auto last = DecodeQueryWalPayload(replayed.records[3].second);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->id, 2);

  WalCursor cursor(env, path);
  WalRecordType type;
  std::string payload;
  std::vector<WalRecordType> seen;
  while (true) {
    auto polled = cursor.Poll(&type, &payload);
    ASSERT_TRUE(polled.ok());
    if (!*polled) break;
    seen.push_back(type);
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[2], WalRecordType::kCheckpoint);
}

TEST(FsyncPolicyTest, ParseForms) {
  size_t every_n = 64;
  auto policy = ParseFsyncPolicy("always", &every_n);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(*policy, FsyncPolicy::kAlways);
  policy = ParseFsyncPolicy("never", &every_n);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(*policy, FsyncPolicy::kNever);
  policy = ParseFsyncPolicy("every_n:128", &every_n);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(*policy, FsyncPolicy::kEveryN);
  EXPECT_EQ(every_n, 128u);
  every_n = 64;
  policy = ParseFsyncPolicy("every_n", &every_n);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(every_n, 64u);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes", &every_n).ok());
  EXPECT_FALSE(ParseFsyncPolicy("every_n:", &every_n).ok());
  EXPECT_FALSE(ParseFsyncPolicy("every_n:0", &every_n).ok());
  // A negative cadence must not wrap to 2^64-1.
  EXPECT_FALSE(ParseFsyncPolicy("every_n:-1", &every_n).ok());
  EXPECT_EQ(every_n, 64u);
  EXPECT_EQ(std::string(FsyncPolicyName(FsyncPolicy::kAlways)), "always");
  EXPECT_EQ(std::string(FsyncPolicyName(FsyncPolicy::kEveryN)), "every_n");
  EXPECT_EQ(std::string(FsyncPolicyName(FsyncPolicy::kNever)), "never");
}

// The fsync policy drives real Sync() calls: count them via the fault
// injector (sync is a numbered op; crashing exactly at the k-th sync
// proves how many happened).
TEST(FsyncPolicyTest, EveryNSyncsOnCadence) {
  std::string dir = ScratchDir("cadence");
  io::FaultInjectingEnv env(Env::Default());
  WalWriterOptions options;
  options.fsync = FsyncPolicy::kEveryN;
  options.every_n = 3;
  auto writer = WalWriter::Open(&env, JoinPath(dir, "wal"), options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE((*writer)->Append(WalRecordType::kQuery, "p").ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  // 9 appends + 3 cadence syncs (after records 3, 6, 9).
  EXPECT_EQ(env.ops_recorded(), 12);
}

}  // namespace
}  // namespace querylog
}  // namespace auditdb
