#include "src/net/subscription.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace auditdb {
namespace net {
namespace {

// --- Codec -----------------------------------------------------------

PushEvent SampleEvent() {
  PushEvent event;
  event.subscription_id = 42;
  event.seq = 7;
  event.kind = PushKind::kAlert;
  event.log_id = 1234;
  event.expression_id = 3;
  event.rank = 0.6666667;
  event.fired = true;
  event.dropped = 0;
  event.verdict = "AUDIT (name)\nFROM P-Personal\nverdict 1: admitted";
  return event;
}

TEST(PushCodecTest, RoundTripsEveryField) {
  PushEvent event = SampleEvent();
  auto decoded = DecodePushPayload(EncodePushPayload(event));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->subscription_id, event.subscription_id);
  EXPECT_EQ(decoded->seq, event.seq);
  EXPECT_EQ(decoded->kind, event.kind);
  EXPECT_EQ(decoded->log_id, event.log_id);
  EXPECT_EQ(decoded->expression_id, event.expression_id);
  EXPECT_NEAR(decoded->rank, event.rank, 1e-6);
  EXPECT_EQ(decoded->fired, event.fired);
  EXPECT_EQ(decoded->dropped, event.dropped);
  EXPECT_EQ(decoded->verdict, event.verdict);
}

TEST(PushCodecTest, VerdictWithPipesAndBackslashesSurvives) {
  PushEvent event = SampleEvent();
  event.verdict = "a|b\\c|d\nnewline|";
  auto decoded = DecodePushPayload(EncodePushPayload(event));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->verdict, event.verdict);
}

TEST(PushCodecTest, GapEventRoundTrips) {
  PushEvent gap;
  gap.subscription_id = 5;
  gap.seq = 10;
  gap.kind = PushKind::kGap;
  gap.dropped = 17;
  auto decoded = DecodePushPayload(EncodePushPayload(gap));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, PushKind::kGap);
  EXPECT_EQ(decoded->seq, 10u);
  EXPECT_EQ(decoded->dropped, 17u);
}

TEST(PushCodecTest, RejectsMalformedPayloads) {
  EXPECT_FALSE(DecodePushPayload("").ok());
  EXPECT_FALSE(DecodePushPayload("1|2|3").ok());  // wrong arity
  PushEvent event = SampleEvent();
  std::string good = EncodePushPayload(event);
  // Corrupt the kind field.
  std::string bad_kind = good;
  auto pos = bad_kind.find("alert");
  ASSERT_NE(pos, std::string::npos);
  bad_kind.replace(pos, 5, "nosuch");
  EXPECT_FALSE(DecodePushPayload(bad_kind).ok());
  EXPECT_FALSE(DecodePushPayload("x|2|alert|3|4|0.5|1|0|v").ok());
  // A negative sequence number must not wrap to 2^64-1.
  EXPECT_FALSE(DecodePushPayload("1|-1|alert|3|4|0.5|1|0|v").ok());
}

TEST(PushCodecTest, NamesAndParsersRoundTrip) {
  EXPECT_STREQ(PushKindName(PushKind::kProgress), "progress");
  EXPECT_STREQ(PushKindName(PushKind::kAlert), "alert");
  EXPECT_STREQ(PushKindName(PushKind::kGap), "gap");
  for (PushKind kind :
       {PushKind::kProgress, PushKind::kAlert, PushKind::kGap}) {
    auto parsed = ParsePushKind(PushKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParsePushKind("bogus").ok());

  EXPECT_STREQ(SlowSubscriberPolicyName(SlowSubscriberPolicy::kDropOldest),
               "drop");
  EXPECT_STREQ(SlowSubscriberPolicyName(SlowSubscriberPolicy::kEvict),
               "evict");
  auto drop = ParseSlowSubscriberPolicy("drop");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(*drop, SlowSubscriberPolicy::kDropOldest);
  auto evict = ParseSlowSubscriberPolicy("evict");
  ASSERT_TRUE(evict.ok());
  EXPECT_EQ(*evict, SlowSubscriberPolicy::kEvict);
  EXPECT_FALSE(ParseSlowSubscriberPolicy("banana").ok());
}

// --- Registry: lifecycle ---------------------------------------------

TEST(SubscriptionRegistryTest, SubscribeUnsubscribeLifecycle) {
  SubscriptionRegistry registry;
  EXPECT_EQ(registry.active(), 0u);
  auto sub = registry.Subscribe(/*conn_id=*/1, /*expression_id=*/10);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(registry.active(), 1u);
  EXPECT_TRUE(registry.HasSubscriptions(1));
  EXPECT_FALSE(registry.HasSubscriptions(2));

  auto released = registry.Unsubscribe(1, *sub);
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(*released, 10);
  EXPECT_EQ(registry.active(), 0u);
  EXPECT_FALSE(registry.HasSubscriptions(1));
  // Second unsubscribe: gone.
  EXPECT_FALSE(registry.Unsubscribe(1, *sub).ok());
}

TEST(SubscriptionRegistryTest, UnsubscribeChecksOwnership) {
  SubscriptionRegistry registry;
  auto sub = registry.Subscribe(1, 10);
  ASSERT_TRUE(sub.ok());
  // Another connection cannot cancel it.
  EXPECT_FALSE(registry.Unsubscribe(2, *sub).ok());
  EXPECT_TRUE(registry.HasSubscriptions(1));
}

TEST(SubscriptionRegistryTest, MaxSubscriptionsCap) {
  SubscriptionLimits limits;
  limits.max_subscriptions = 2;
  SubscriptionRegistry registry(limits);
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  ASSERT_TRUE(registry.Subscribe(2, 10).ok());
  auto third = registry.Subscribe(3, 10);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // Freeing one slot re-admits.
  auto dropped = registry.DropConnection(1);
  EXPECT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], 10);
  EXPECT_TRUE(registry.Subscribe(3, 10).ok());
}

TEST(SubscriptionRegistryTest, DropConnectionReturnsExpressionIds) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  ASSERT_TRUE(registry.Subscribe(1, 20).ok());
  ASSERT_TRUE(registry.Subscribe(2, 20).ok());
  auto dropped = registry.DropConnection(1);
  // Expression ids with multiplicity so refcounts release correctly.
  std::multiset<int> ids(dropped.begin(), dropped.end());
  EXPECT_EQ(ids.count(10), 2u);
  EXPECT_EQ(ids.count(20), 1u);
  EXPECT_EQ(registry.active(), 1u);
  EXPECT_TRUE(registry.DropConnection(1).empty());
}

// --- Registry: publish / drain ---------------------------------------

/// Decodes every frame in `bytes` (must all be complete kPushEvent
/// frames) into events.
std::vector<PushEvent> DecodeFrames(const std::string& bytes) {
  std::vector<PushEvent> events;
  FrameReader reader;
  reader.Feed(bytes);
  while (true) {
    auto next = reader.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next->has_value()) break;
    EXPECT_EQ((*next)->type, MessageType::kPushEvent);
    EXPECT_EQ((*next)->version, WireVersion::kV2);
    auto event = DecodePushPayload((*next)->payload);
    EXPECT_TRUE(event.ok()) << event.status().ToString();
    if (event.ok()) events.push_back(std::move(*event));
  }
  return events;
}

TEST(SubscriptionRegistryTest, PublishAssignsPerSubscriptionSequences) {
  SubscriptionRegistry registry;
  auto sub_a = registry.Subscribe(1, 10);
  auto sub_b = registry.Subscribe(2, 10);
  ASSERT_TRUE(sub_a.ok() && sub_b.ok());

  for (int i = 0; i < 3; ++i) {
    auto outcome = registry.Publish(10, PushKind::kProgress, 100 + i,
                                    0.1 * (i + 1), false, "");
    std::set<uint64_t> ready(outcome.ready_conns.begin(),
                             outcome.ready_conns.end());
    EXPECT_EQ(ready.size(), 2u);
    EXPECT_TRUE(outcome.evict_conns.empty());
  }
  // Publishing on an expression with no subscribers is a no-op.
  auto none = registry.Publish(99, PushKind::kProgress, 1, 0.5, false, "");
  EXPECT_TRUE(none.ready_conns.empty());

  for (uint64_t conn : {uint64_t{1}, uint64_t{2}}) {
    std::string out;
    size_t frames = registry.DrainFrames(conn, 1 << 20, &out);
    EXPECT_EQ(frames, 3u);
    auto events = DecodeFrames(out);
    ASSERT_EQ(events.size(), 3u);
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].seq, i + 1);  // per-subscription, 1-based
      EXPECT_EQ(events[i].log_id, 100 + static_cast<int64_t>(i));
      EXPECT_EQ(events[i].kind, PushKind::kProgress);
    }
  }
  EXPECT_EQ(registry.TotalPending(), 0u);
}

TEST(SubscriptionRegistryTest, AlertCarriesVerdictProgressDoesNot) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  registry.Publish(10, PushKind::kProgress, 1, 0.5, false, "ignored");
  registry.Publish(10, PushKind::kAlert, 2, 1.0, true, "the-verdict");
  std::string out;
  registry.DrainFrames(1, 1 << 20, &out);
  auto events = DecodeFrames(out);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].verdict, "");
  EXPECT_EQ(events[1].verdict, "the-verdict");
  EXPECT_TRUE(events[1].fired);
}

TEST(SubscriptionRegistryTest, DrainRespectsMaxBytesAndResumes) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  for (int i = 0; i < 10; ++i) {
    registry.Publish(10, PushKind::kProgress, i, 0.01 * i, false, "");
  }
  // Tiny budget: at least one frame per call, never zero (progress
  // guarantee), resuming in order.
  std::vector<PushEvent> all;
  while (registry.HasPending(1)) {
    std::string out;
    size_t frames = registry.DrainFrames(1, 1, &out);
    EXPECT_GE(frames, 1u);
    auto events = DecodeFrames(out);
    all.insert(all.end(), events.begin(), events.end());
  }
  ASSERT_EQ(all.size(), 10u);
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i + 1);
}

// --- Registry: overflow policies -------------------------------------

TEST(SubscriptionRegistryTest, DropOldestCoalescesContiguousGap) {
  SubscriptionLimits limits;
  limits.push_queue_depth = 3;
  SubscriptionRegistry registry(limits);
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());

  // 8 publishes into a depth-3 queue: seqs 1..5 shed, 6..8 survive.
  for (int i = 1; i <= 8; ++i) {
    registry.Publish(10, PushKind::kProgress, i, 0.1 * i, false, "");
  }
  std::string out;
  registry.DrainFrames(1, 1 << 20, &out);
  auto events = DecodeFrames(out);
  ASSERT_EQ(events.size(), 4u);  // gap + 3 survivors
  EXPECT_EQ(events[0].kind, PushKind::kGap);
  EXPECT_EQ(events[0].seq, 1u);       // first dropped
  EXPECT_EQ(events[0].dropped, 5u);   // covers 1..5
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, PushKind::kProgress);
    EXPECT_EQ(events[i].seq, 5 + i);  // 6, 7, 8
  }
  // The gap reset after delivery: new overflows open a fresh gap.
  for (int i = 9; i <= 13; ++i) {
    registry.Publish(10, PushKind::kProgress, i, 0.1, false, "");
  }
  out.clear();
  registry.DrainFrames(1, 1 << 20, &out);
  events = DecodeFrames(out);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, PushKind::kGap);
  EXPECT_EQ(events[0].seq, 9u);
  EXPECT_EQ(events[0].dropped, 2u);  // 9, 10 shed; 11..13 survive
  EXPECT_EQ(events[1].seq, 11u);
}

TEST(SubscriptionRegistryTest, EvictPolicyFlagsConnectionOnce) {
  SubscriptionLimits limits;
  limits.push_queue_depth = 2;
  limits.slow_subscriber_policy = SlowSubscriberPolicy::kEvict;
  SubscriptionRegistry registry(limits);
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());

  registry.Publish(10, PushKind::kProgress, 1, 0.1, false, "");
  registry.Publish(10, PushKind::kProgress, 2, 0.2, false, "");
  auto third = registry.Publish(10, PushKind::kProgress, 3, 0.3, false, "");
  ASSERT_EQ(third.evict_conns.size(), 1u);
  EXPECT_EQ(third.evict_conns[0], 1u);
  // Once flagged, the connection is not re-flagged: the loop already
  // holds the eviction order, and the evicted counter stays at one.
  auto fourth = registry.Publish(10, PushKind::kProgress, 4, 0.4, false, "");
  EXPECT_TRUE(fourth.evict_conns.empty());
  std::string json = registry.MetricsJson();
  EXPECT_NE(json.find("\"slow_subscribers_evicted\":1"), std::string::npos)
      << json;
  // No event was queued past the overflow, and no sequence number was
  // burned for the unqueued events: queue still holds exactly seqs 1-2.
  std::string out;
  registry.DrainFrames(1, 1 << 20, &out);
  auto events = DecodeFrames(out);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
}

TEST(SubscriptionRegistryTest, MetricsJsonTracksCounters) {
  SubscriptionLimits limits;
  limits.push_queue_depth = 1;
  SubscriptionRegistry registry(limits);
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  registry.Publish(10, PushKind::kProgress, 1, 0.1, false, "");
  registry.Publish(10, PushKind::kProgress, 2, 0.2, false, "");  // sheds 1
  std::string out;
  registry.DrainFrames(1, 1 << 20, &out);
  std::string json = registry.MetricsJson();
  EXPECT_NE(json.find("\"subscriptions_active\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pushes_dropped\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gap_frames_sent\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pending_events\":0"), std::string::npos);
  // Only the surviving event counts as a push; the gap frame has its
  // own counter.
  EXPECT_NE(json.find("\"pushes_sent\":1"), std::string::npos) << json;
}

TEST(SubscriptionRegistryTest, PendingCountsGateDrain) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  ASSERT_TRUE(registry.Subscribe(2, 10).ok());
  EXPECT_EQ(registry.TotalPending(), 0u);
  registry.Publish(10, PushKind::kProgress, 1, 0.1, false, "");
  EXPECT_EQ(registry.TotalPending(), 2u);
  EXPECT_TRUE(registry.HasPending(1));
  std::string out;
  registry.DrainFrames(1, 1 << 20, &out);
  EXPECT_FALSE(registry.HasPending(1));
  EXPECT_EQ(registry.TotalPending(), 1u);
  // Dropping a connection discards its parked events.
  registry.DropConnection(2);
  EXPECT_EQ(registry.TotalPending(), 0u);
}

// --- Concurrency (exercised under TSan in CI) ------------------------

TEST(SubscriptionConcurrentTest, PublishRacesSubscribeUnsubscribeDrain) {
  SubscriptionLimits limits;
  limits.push_queue_depth = 8;
  SubscriptionRegistry registry(limits);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> publishes{0};

  // Publisher: hammers two expression ids.
  std::thread publisher([&] {
    int64_t log_id = 0;
    while (!stop.load()) {
      registry.Publish(1, PushKind::kProgress, ++log_id, 0.5, false, "");
      registry.Publish(2, PushKind::kAlert, ++log_id, 1.0, true, "v");
      publishes.fetch_add(1);
    }
  });
  // Drainer: empties conn 1 and 2 queues.
  std::thread drainer([&] {
    std::string out;
    while (!stop.load()) {
      out.clear();
      registry.DrainFrames(1, 4096, &out);
      registry.DrainFrames(2, 4096, &out);
    }
  });
  // Churners: subscribe/unsubscribe/drop on their own connections.
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      uint64_t conn = static_cast<uint64_t>(t + 1);
      for (int i = 0; i < 400; ++i) {
        auto sub = registry.Subscribe(conn, 1 + (i % 2));
        if (!sub.ok()) continue;
        if (i % 3 == 0) {
          registry.Unsubscribe(conn, *sub);
        } else if (i % 7 == 0) {
          registry.DropConnection(conn);
        }
        registry.MetricsJson();
        registry.TotalPending();
      }
      registry.DropConnection(conn);
    });
  }
  for (auto& churner : churners) churner.join();
  stop.store(true);
  publisher.join();
  drainer.join();
  EXPECT_GT(publishes.load(), 0);
  EXPECT_EQ(registry.active(), 0u);
  // Whatever is still parked belongs to dropped connections: draining
  // them is a no-op, and pending drains to zero for live conns.
  std::string out;
  for (uint64_t conn = 1; conn <= 3; ++conn) {
    EXPECT_EQ(registry.DrainFrames(conn, 1 << 20, &out), 0u);
  }
}

TEST(SubscriptionConcurrentTest, SequencesStayDenseUnderChurn) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe(1, 10).ok());
  std::atomic<bool> stop{false};
  std::vector<PushEvent> received;
  std::mutex received_mutex;

  std::thread drainer([&] {
    while (!stop.load()) {
      std::string out;
      if (registry.DrainFrames(1, 1 << 16, &out) > 0) {
        auto events = DecodeFrames(out);
        std::lock_guard<std::mutex> lock(received_mutex);
        received.insert(received.end(), events.begin(), events.end());
      }
    }
    std::string out;
    registry.DrainFrames(1, 1 << 20, &out);
    auto events = DecodeFrames(out);
    std::lock_guard<std::mutex> lock(received_mutex);
    received.insert(received.end(), events.begin(), events.end());
  });
  constexpr int kEvents = 2000;
  for (int i = 1; i <= kEvents; ++i) {
    registry.Publish(10, PushKind::kProgress, i, 0.1, false, "");
  }
  stop.store(true);
  drainer.join();

  // Every sequence number 1..kEvents is accounted for: delivered once,
  // or covered by a gap frame. Order within the delivered stream is
  // ascending.
  std::set<uint64_t> covered;
  uint64_t last_seq = 0;
  for (const auto& event : received) {
    if (event.kind == PushKind::kGap) {
      for (uint64_t s = event.seq; s < event.seq + event.dropped; ++s) {
        EXPECT_TRUE(covered.insert(s).second) << "seq " << s << " twice";
      }
    } else {
      EXPECT_GT(event.seq, last_seq);
      last_seq = event.seq;
      EXPECT_TRUE(covered.insert(event.seq).second);
    }
  }
  EXPECT_EQ(covered.size(), static_cast<size_t>(kEvents));
  for (uint64_t s = 1; s <= kEvents; ++s) {
    EXPECT_TRUE(covered.count(s)) << "seq " << s << " lost without gap";
  }
}

}  // namespace
}  // namespace net
}  // namespace auditdb
