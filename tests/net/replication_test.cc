#include "src/net/replication.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/net/wire.h"
#include "src/querylog/wal.h"

namespace auditdb {
namespace net {
namespace {

using std::chrono::milliseconds;

TEST(ReplAckPolicyTest, ParseAndName) {
  auto none = ParseReplAckPolicy("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, ReplAckPolicy::kNone);
  auto quorum = ParseReplAckPolicy("quorum");
  ASSERT_TRUE(quorum.ok());
  EXPECT_EQ(*quorum, ReplAckPolicy::kQuorum);
  auto all = ParseReplAckPolicy("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, ReplAckPolicy::kAll);
  EXPECT_FALSE(ParseReplAckPolicy("most").ok());
  EXPECT_FALSE(ParseReplAckPolicy("").ok());
  EXPECT_EQ(std::string(ReplAckPolicyName(ReplAckPolicy::kQuorum)),
            "quorum");
}

TEST(ParseHostPortTest, Forms) {
  auto parsed = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->first, "127.0.0.1");
  EXPECT_EQ(parsed->second, 8080);
  EXPECT_FALSE(ParseHostPort("127.0.0.1").ok());
  EXPECT_FALSE(ParseHostPort(":8080").ok());
  EXPECT_FALSE(ParseHostPort("host:").ok());
  EXPECT_FALSE(ParseHostPort("host:notaport").ok());
  EXPECT_FALSE(ParseHostPort("host:99999").ok());
  EXPECT_FALSE(ParseHostPort("").ok());
}

TEST(NotPrimaryTest, StatusRoundTripsThePrimaryAddress) {
  Status status = MakeNotPrimaryStatus("10.0.0.7:4321");
  EXPECT_TRUE(IsNotPrimaryStatus(status));
  EXPECT_EQ(NotPrimaryAddress(status), "10.0.0.7:4321");
  // Unknown primary (freshly promoted cluster mid-shuffle): still a
  // NOT_PRIMARY, with no address to follow.
  Status unknown = MakeNotPrimaryStatus("");
  EXPECT_TRUE(IsNotPrimaryStatus(unknown));
  EXPECT_EQ(NotPrimaryAddress(unknown), "");
  EXPECT_FALSE(IsNotPrimaryStatus(Status::InvalidArgument("nope")));
  EXPECT_FALSE(IsNotPrimaryStatus(Status::Ok()));
}

TEST(ReplicateCodecTest, WalEventRoundTrips) {
  LoggedQuery entry;
  entry.id = 42;
  entry.timestamp = Timestamp(123456);
  entry.user = "alice|pipe";
  entry.role = "Nurse";
  entry.purpose = "care\nnewline";
  entry.sql = "SELECT name FROM P-Personal WHERE pid = 'p|1'";
  std::string framed = querylog::EncodeWalRecord(
      querylog::WalRecordType::kQuery,
      querylog::EncodeQueryWalPayload(entry));

  auto event = DecodeReplicateEvent(EncodeReplicateWal(framed));
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->kind, ReplicateEvent::Kind::kWal);
  EXPECT_EQ(event->wal_record, framed);

  // The shipped bytes CRC-validate and decode back to the entry.
  querylog::WalRecordType type;
  std::string payload;
  size_t consumed = 0;
  auto decoded =
      querylog::DecodeWalRecord(event->wal_record, &type, &payload,
                                &consumed);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(*decoded);
  EXPECT_EQ(consumed, framed.size());
  auto logged = querylog::DecodeQueryWalPayload(payload);
  ASSERT_TRUE(logged.ok());
  EXPECT_EQ(logged->id, 42);
  EXPECT_EQ(logged->user, "alice|pipe");
  EXPECT_EQ(logged->sql, entry.sql);
}

TEST(ReplicateCodecTest, CheckpointEventCarriesDumpsGenerationAndStamp) {
  std::string db_dump = "TABLE P-Personal|pid:string\nROW p1\n";
  std::string log_dump = "QUERY 1|5|u|r|p|SELECT 1\n";
  auto event = DecodeReplicateEvent(EncodeReplicateCheckpoint(
      db_dump, log_dump, /*load_generation=*/7,
      /*stamp_micros=*/1000000));
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->kind, ReplicateEvent::Kind::kCheckpoint);
  EXPECT_EQ(event->db_dump, db_dump);
  EXPECT_EQ(event->log_dump, log_dump);
  EXPECT_EQ(event->load_generation, 7u);
  EXPECT_EQ(event->stamp_micros, 1000000);
}

TEST(ReplicateCodecTest, LoadEventRoundTrips) {
  auto event = DecodeReplicateEvent(EncodeReplicateLoad(
      "db", "TABLE t|c:string\n", /*load_generation=*/3,
      /*stamp_micros=*/42));
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->kind, ReplicateEvent::Kind::kLoad);
  EXPECT_EQ(event->load_kind, "db");
  EXPECT_EQ(event->load_dump, "TABLE t|c:string\n");
  EXPECT_EQ(event->load_generation, 3u);
  EXPECT_EQ(event->stamp_micros, 42);
}

TEST(ReplicateCodecTest, MalformedEventsAreRejected) {
  EXPECT_FALSE(DecodeReplicateEvent("").ok());
  EXPECT_FALSE(DecodeReplicateEvent("bogus|x").ok());
  EXPECT_FALSE(DecodeReplicateEvent("wal").ok());          // no record
  EXPECT_FALSE(DecodeReplicateEvent("ckpt|db|log|x|1").ok());  // bad gen
  EXPECT_FALSE(DecodeReplicateEvent("load|db|d|1|notanum").ok());
}

TEST(ReplicateHandshakeTest, RoundTrips) {
  ReplicateHandshake handshake;
  handshake.applied_log_id = 17;
  handshake.have_state = true;
  handshake.load_generation = 4;
  auto decoded =
      DecodeReplicateHandshake(EncodeReplicateHandshake(handshake));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->applied_log_id, 17);
  EXPECT_TRUE(decoded->have_state);
  EXPECT_EQ(decoded->load_generation, 4u);
  EXPECT_FALSE(DecodeReplicateHandshake("").ok());
  EXPECT_FALSE(DecodeReplicateHandshake("1|2").ok());
  EXPECT_FALSE(DecodeReplicateHandshake("x|0|0").ok());
  // A negative generation must not wrap to 2^64-1.
  EXPECT_FALSE(DecodeReplicateHandshake("0|1|-1").ok());
}

// The satellite contract: a CRC-valid record whose id skips ahead means
// records were lost on the stream — the follower must re-sync, never
// silently apply past a gap.
TEST(ShipDecisionTest, DuplicateApplyAndGapSemantics) {
  EXPECT_EQ(DecideShippedQuery(/*applied=*/5, /*record=*/5),
            ShipDecision::kDuplicate);
  EXPECT_EQ(DecideShippedQuery(5, 3), ShipDecision::kDuplicate);
  EXPECT_EQ(DecideShippedQuery(5, 6), ShipDecision::kApply);
  EXPECT_EQ(DecideShippedQuery(5, 7), ShipDecision::kResync);
  EXPECT_EQ(DecideShippedQuery(0, 1), ShipDecision::kApply);
  EXPECT_EQ(DecideShippedQuery(0, 2), ShipDecision::kResync);
}

TEST(ReplicationHubTest, ShipQueuesPerFollowerAndDrainsInOrder) {
  ReplicationHub hub;
  hub.RegisterFollower(1, /*acked_log_id=*/0, {});
  hub.RegisterFollower(2, /*acked_log_id=*/0, {});
  EXPECT_EQ(hub.follower_count(), 2u);
  EXPECT_TRUE(hub.IsFollower(1));
  EXPECT_FALSE(hub.IsFollower(3));

  PublishOutcome outcome = hub.Ship(1, "frame-a");
  EXPECT_EQ(outcome.ready_conns.size(), 2u);
  EXPECT_TRUE(outcome.evict_conns.empty());
  hub.Ship(2, "frame-b");
  EXPECT_EQ(hub.last_shipped(), 2);
  EXPECT_EQ(hub.TotalPending(), 4u);

  std::string out;
  size_t taken = hub.DrainFrames(1, /*max_bytes=*/1 << 20, &out);
  EXPECT_EQ(taken, 2u);
  EXPECT_EQ(out, "frame-aframe-b");
  EXPECT_FALSE(hub.HasPending(1));
  EXPECT_TRUE(hub.HasPending(2));
}

TEST(ReplicationHubTest, RegisteredBacklogDrainsBeforeShippedFrames) {
  ReplicationHub hub;
  hub.RegisterFollower(1, 0, {"old-1", "old-2"});
  hub.Ship(3, "new-3");
  std::string out;
  EXPECT_EQ(hub.DrainFrames(1, 1 << 20, &out), 3u);
  EXPECT_EQ(out, "old-1old-2new-3");
}

TEST(ReplicationHubTest, OverflowEvictsTheFollowerAndBoundsDivergence) {
  ReplicationHub hub(/*max_buffered_records=*/2);
  hub.RegisterFollower(1, 0, {});
  hub.Ship(1, "a");
  hub.Ship(2, "b");
  // Third undrained frame crosses the bound: the follower is dropped
  // and flagged for eviction rather than buffering without limit.
  PublishOutcome outcome = hub.Ship(3, "c");
  ASSERT_EQ(outcome.evict_conns.size(), 1u);
  EXPECT_EQ(outcome.evict_conns[0], 1u);
  EXPECT_EQ(hub.follower_count(), 0u);
  EXPECT_FALSE(hub.IsFollower(1));
}

TEST(ReplicationHubTest, WaitForAcksNonePolicyIsImmediate) {
  ReplicationHub hub;
  hub.RegisterFollower(1, 0, {});
  EXPECT_TRUE(
      hub.WaitForAcks(5, ReplAckPolicy::kNone, milliseconds(0)).ok());
}

TEST(ReplicationHubTest, QuorumCountsFollowerAcks) {
  ReplicationHub hub;
  hub.RegisterFollower(1, 0, {});
  hub.RegisterFollower(2, 0, {});
  hub.Ship(1, "f");
  // Quorum over primary+2 followers = 1 follower ack.
  Status timed_out =
      hub.WaitForAcks(1, ReplAckPolicy::kQuorum, milliseconds(30));
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);

  std::thread acker([&hub] {
    std::this_thread::sleep_for(milliseconds(20));
    hub.Ack(1, 1);
  });
  EXPECT_TRUE(
      hub.WaitForAcks(1, ReplAckPolicy::kQuorum, milliseconds(2000)).ok());
  acker.join();
  // kAll still wants follower 2.
  EXPECT_EQ(hub.WaitForAcks(1, ReplAckPolicy::kAll, milliseconds(30)).code(),
            StatusCode::kDeadlineExceeded);
  hub.Ack(2, 1);
  EXPECT_TRUE(
      hub.WaitForAcks(1, ReplAckPolicy::kAll, milliseconds(2000)).ok());
}

TEST(ReplicationHubTest, DroppedFollowerWakesWaitersAndShrinksQuorum) {
  ReplicationHub hub;
  hub.RegisterFollower(1, 0, {});
  hub.RegisterFollower(2, 0, {});
  hub.Ship(1, "f");
  hub.Ack(2, 1);
  std::thread dropper([&hub] {
    std::this_thread::sleep_for(milliseconds(20));
    hub.DropConnection(1);
  });
  // With follower 1 gone, kAll = {follower 2}, already acked.
  EXPECT_TRUE(
      hub.WaitForAcks(1, ReplAckPolicy::kAll, milliseconds(2000)).ok());
  dropper.join();
}

TEST(ReplicationHubTest, NoFollowersSatisfiesEveryPolicy) {
  ReplicationHub hub;
  // A cluster of one: quorum of {primary} is the primary itself.
  EXPECT_TRUE(
      hub.WaitForAcks(9, ReplAckPolicy::kQuorum, milliseconds(0)).ok());
  EXPECT_TRUE(hub.WaitForAcks(9, ReplAckPolicy::kAll, milliseconds(0)).ok());
}

TEST(ReplicationHubTest, MetricsJsonCarriesFollowerLag) {
  ReplicationHub hub;
  hub.RegisterFollower(7, 0, {});
  hub.Ship(1, "frame");
  std::string json = hub.MetricsJson();
  EXPECT_NE(json.find("\"last_shipped\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"followers_active\":1"), std::string::npos);
  EXPECT_NE(json.find("\"lag_records\""), std::string::npos);
  hub.Ack(7, 1);
  json = hub.MetricsJson();
  EXPECT_NE(json.find("\"acked\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace net
}  // namespace auditdb
