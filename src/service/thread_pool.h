#ifndef AUDITDB_SERVICE_THREAD_POOL_H_
#define AUDITDB_SERVICE_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/service/bounded_queue.h"
#include "src/service/metrics.h"

namespace auditdb {
namespace service {

/// What Submit does when the job queue is full — the service's admission
/// control knob.
enum class AdmissionPolicy {
  /// Block the producer until a worker frees a slot (backpressure by
  /// stalling; nothing is lost).
  kBlock,
  /// Turn the job away with ResourceExhausted (backpressure by load
  /// shedding; the caller decides whether to retry, degrade, or run the
  /// work itself).
  kReject,
};

struct ThreadPoolOptions {
  /// Worker count; 0 = hardware_concurrency (min 1).
  size_t num_threads = 0;
  /// Bounded job-queue capacity (the backpressure buffer).
  size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
};

/// A fixed-size worker pool over a bounded MPMC job queue. Workers run
/// jobs in FIFO order; Submit applies the admission policy; Shutdown
/// drains the queue and joins. Instrumented: jobs submitted / completed /
/// rejected, live and watermark queue depth, and queue-wait / run-time
/// histograms all land in the registry (an internal one unless the
/// caller shares theirs).
class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolOptions options = ThreadPoolOptions{},
                      MetricsRegistry* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }
  size_t queue_depth() const { return queue_.depth(); }

  /// Enqueues a job under the configured admission policy. Errors:
  /// ResourceExhausted (kReject, queue full) or InvalidArgument (pool
  /// shut down / null job). The job will eventually run on some worker.
  Status Submit(std::function<void()> job);

  /// Admission-policy-independent non-blocking probe; ResourceExhausted
  /// when full.
  Status TrySubmit(std::function<void()> job);

  /// Closes the queue, lets workers drain remaining jobs, joins them.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// Blocks until every accepted job has finished running (the graceful-
  /// drain hook: quiesce without tearing the pool down). The caller must
  /// stop submitting first, or the wait can race new arrivals.
  void WaitIdle();

  const MetricsRegistry& metrics() const { return *metrics_; }
  MetricsRegistry* mutable_metrics() { return metrics_; }

 private:
  struct QueuedJob {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  Status Enqueue(std::function<void()> job, bool allow_block);
  void WorkerLoop();
  void FinishJob();

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  AdmissionPolicy admission_ = AdmissionPolicy::kBlock;
  BoundedQueue<QueuedJob> queue_;
  std::vector<std::thread> workers_;

  // Accepted-but-unfinished job count backing WaitIdle.
  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  size_t outstanding_ = 0;

  // Hot-path instrument pointers (stable for the registry's lifetime).
  Counter* jobs_submitted_;
  Counter* jobs_completed_;
  Counter* jobs_rejected_;
  Gauge* depth_gauge_;
  Histogram* wait_micros_;
  Histogram* run_micros_;
};

/// Fans `tasks` out to the pool and blocks until all are done; slot i of
/// the returned vector is task i's Status, so results merge
/// deterministically no matter the completion order. With a null `pool`
/// the tasks run in order on the caller thread. If the pool's admission
/// policy rejects a task (queue full under kReject), the caller runs it
/// inline — backpressure slows the producer down, but every task still
/// executes exactly once. Safe only from threads outside the pool: a
/// worker fanning out to its own pool can deadlock (every worker blocked
/// waiting on tasks queued behind it), so a task passes null instead.
std::vector<Status> RunBatch(ThreadPool* pool,
                             std::vector<std::function<Status()>> tasks);

}  // namespace service
}  // namespace auditdb

#endif  // AUDITDB_SERVICE_THREAD_POOL_H_
