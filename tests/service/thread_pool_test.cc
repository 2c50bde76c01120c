#include "src/service/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "src/service/bounded_queue.h"

namespace auditdb {
namespace service {
namespace {

using std::chrono::milliseconds;

ThreadPoolOptions Options(size_t threads, size_t capacity,
                          AdmissionPolicy admission = AdmissionPolicy::kBlock) {
  ThreadPoolOptions options;
  options.num_threads = threads;
  options.queue_capacity = capacity;
  options.admission = admission;
  return options;
}

// --- BoundedQueue ----------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_TRUE(queue.Push(3));
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
}

TEST(BoundedQueueTest, TryPushRefusesWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.high_watermark(), 2u);
  queue.Pop();
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(queue.high_watermark(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  queue.Push(1);
  queue.Push(2);
  queue.Close();
  EXPECT_FALSE(queue.Push(3));  // no admissions after close
  EXPECT_EQ(queue.Pop(), 1);   // but the backlog drains
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> queue(1);
  std::thread producer([&queue] {
    std::this_thread::sleep_for(milliseconds(20));
    queue.Push(7);
  });
  EXPECT_EQ(queue.Pop(), 7);  // blocks until the producer delivers
  producer.join();
}

// --- ThreadPool ------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(Options(4, 64));
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_NE(pool.metrics().ToJson().find("\"pool.jobs_submitted\":100"),
            std::string::npos);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, RejectPolicyShedsWhenFull) {
  MetricsRegistry metrics;
  ThreadPool pool(Options(1, 1, AdmissionPolicy::kReject), &metrics);
  std::latch started(1), release(1);
  // Occupy the single worker...
  ASSERT_TRUE(pool.Submit([&] {
                    started.count_down();
                    release.wait();
                  })
                  .ok());
  started.wait();
  // ...fill the one queue slot...
  ASSERT_TRUE(pool.Submit([] {}).ok());
  // ...now admission control must turn the next job away.
  Status rejected = pool.Submit([] {});
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted)
      << rejected.ToString();
  EXPECT_EQ(pool.TrySubmit([] {}).code(), StatusCode::kResourceExhausted);
  release.count_down();
  pool.Shutdown();
  EXPECT_GE(metrics.counter("pool.jobs_rejected")->value(), 2u);
  EXPECT_EQ(metrics.gauge("pool.queue_depth")->max(), 1);
}

TEST(ThreadPoolTest, BlockPolicyStallsProducerInsteadOfLosingJobs) {
  ThreadPool pool(Options(2, 2, AdmissionPolicy::kBlock));
  std::atomic<int> ran{0};
  // Far more jobs than queue slots: producers block on the full queue
  // and every job still runs exactly once.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(Options(1, 4));
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}).ok());
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(Options(1, 64));
    std::latch release(1);
    ASSERT_TRUE(pool.Submit([&release] { release.wait(); }).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }).ok());
    }
    release.count_down();
    // Destructor runs Shutdown: close, drain, join.
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilEverySubmittedJobFinishes) {
  ThreadPool pool(Options(2, 16));
  std::atomic<int> ran{0};
  std::latch release(1);
  ASSERT_TRUE(pool.Submit([&] {
                    release.wait();
                    ran.fetch_add(1);
                  })
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }).ok());
  }
  std::thread releaser([&release] {
    std::this_thread::sleep_for(milliseconds(20));
    release.count_down();
  });
  pool.WaitIdle();
  // WaitIdle returned: nothing queued, nothing running.
  EXPECT_EQ(ran.load(), 9);
  releaser.join();
  // Idle pools return immediately, repeatedly.
  pool.WaitIdle();
  pool.WaitIdle();
}

TEST(ThreadPoolTest, WaitIdleCountsRejectedJobsAsFinished) {
  ThreadPool pool(Options(1, 1, AdmissionPolicy::kReject));
  std::latch started(1), release(1);
  ASSERT_TRUE(pool.Submit([&] {
                    started.count_down();
                    release.wait();
                  })
                  .ok());
  started.wait();
  ASSERT_TRUE(pool.Submit([] {}).ok());         // fills the queue slot
  EXPECT_FALSE(pool.TrySubmit([] {}).ok());      // bounced — must not
  release.count_down();                          // wedge WaitIdle
  pool.WaitIdle();
}

// --- RunBatch --------------------------------------------------------

TEST(RunBatchTest, StatusesLandInSubmissionSlots) {
  ThreadPool pool(Options(4, 64));
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back([i]() -> Status {
      if (i % 3 == 0) return Status::Internal("task " + std::to_string(i));
      return Status::Ok();
    });
  }
  auto statuses = RunBatch(&pool, std::move(tasks));
  ASSERT_EQ(statuses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kInternal) << i;
      EXPECT_NE(statuses[i].message().find(std::to_string(i)),
                std::string::npos);
    } else {
      EXPECT_TRUE(statuses[i].ok()) << i;
    }
  }
}

TEST(RunBatchTest, EmptyBatchReturnsImmediately) {
  ThreadPool pool(Options(2, 8));
  EXPECT_TRUE(RunBatch(&pool, {}).empty());
}

TEST(RunBatchTest, NullPoolRunsInOrderOnTheCallerThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([i, caller, &order]() -> Status {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
      if (i == 2) return Status::Internal("task 2");
      return Status::Ok();
    });
  }
  auto statuses = RunBatch(nullptr, std::move(tasks));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  ASSERT_EQ(statuses.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(statuses[i].ok(), i != 2) << i;
  }
}

TEST(RunBatchTest, RejectingPoolFallsBackToInlineExecution) {
  // Tiny queue + kReject: most submissions bounce, RunBatch must run
  // them inline — every task still executes exactly once, no deadlock.
  ThreadPool pool(Options(2, 2, AdmissionPolicy::kReject));
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 300; ++i) {
    tasks.push_back([&ran]() -> Status {
      ran.fetch_add(1);
      return Status::Ok();
    });
  }
  auto statuses = RunBatch(&pool, std::move(tasks));
  EXPECT_EQ(ran.load(), 300);
  for (const auto& status : statuses) EXPECT_TRUE(status.ok());
}

TEST(RunBatchTest, OversubscribedStressDoesNotDeadlock) {
  // The satellite stress case: far more batches than queue slots, both
  // admission policies, workers oversubscribed relative to the host.
  for (AdmissionPolicy admission :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kReject}) {
    ThreadPool pool(Options(4, 2, admission));
    std::atomic<int> ran{0};
    for (int round = 0; round < 5; ++round) {
      std::vector<std::function<Status()>> tasks;
      for (int i = 0; i < 100; ++i) {
        tasks.push_back([&ran]() -> Status {
          ran.fetch_add(1);
          return Status::Ok();
        });
      }
      auto statuses = RunBatch(&pool, std::move(tasks));
      for (const auto& status : statuses) EXPECT_TRUE(status.ok());
    }
    EXPECT_EQ(ran.load(), 500);
  }
}

TEST(ThreadPoolTest, MetricsCoverWaitAndRunLatency) {
  MetricsRegistry metrics;
  ThreadPool pool(Options(2, 16), &metrics);
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([]() -> Status {
      std::this_thread::sleep_for(milliseconds(1));
      return Status::Ok();
    });
  }
  RunBatch(&pool, std::move(tasks));
  pool.Shutdown();
  EXPECT_EQ(metrics.counter("pool.jobs_completed")->value(),
            metrics.counter("pool.jobs_submitted")->value());
  EXPECT_GT(metrics.histogram("pool.job_run_micros")->count(), 0u);
  EXPECT_GT(metrics.histogram("pool.job_wait_micros")->count(), 0u);
  EXPECT_GE(metrics.gauge("pool.queue_depth")->max(), 1);
  EXPECT_EQ(metrics.gauge("pool.queue_depth")->value(), 0);
}

}  // namespace
}  // namespace service
}  // namespace auditdb
