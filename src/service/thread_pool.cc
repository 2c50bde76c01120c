#include "src/service/thread_pool.h"

#include <condition_variable>
#include <mutex>

namespace auditdb {
namespace service {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

ThreadPool::ThreadPool(ThreadPoolOptions options, MetricsRegistry* metrics)
    : owned_metrics_(metrics == nullptr
                         ? std::make_unique<MetricsRegistry>()
                         : nullptr),
      metrics_(metrics == nullptr ? owned_metrics_.get() : metrics),
      queue_(options.queue_capacity) {
  admission_ = options.admission;
  jobs_submitted_ = metrics_->counter("pool.jobs_submitted");
  jobs_completed_ = metrics_->counter("pool.jobs_completed");
  jobs_rejected_ = metrics_->counter("pool.jobs_rejected");
  depth_gauge_ = metrics_->gauge("pool.queue_depth");
  wait_micros_ = metrics_->histogram("pool.job_wait_micros");
  run_micros_ = metrics_->histogram("pool.job_run_micros");

  size_t n = options.num_threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(std::function<void()> job) {
  return Enqueue(std::move(job),
                 /*allow_block=*/admission_ == AdmissionPolicy::kBlock);
}

Status ThreadPool::TrySubmit(std::function<void()> job) {
  return Enqueue(std::move(job), /*allow_block=*/false);
}

Status ThreadPool::Enqueue(std::function<void()> job, bool allow_block) {
  if (job == nullptr) {
    return Status::InvalidArgument("null job");
  }
  if (queue_.closed()) {
    return Status::InvalidArgument("thread pool is shut down");
  }
  QueuedJob queued{std::move(job), std::chrono::steady_clock::now()};
  // Count before the push: once a job is visible to a worker it must
  // already be outstanding, or WaitIdle could slip between.
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    ++outstanding_;
  }
  bool accepted = allow_block ? queue_.Push(std::move(queued))
                              : queue_.TryPush(std::move(queued));
  if (!accepted) {
    FinishJob();
    if (queue_.closed()) {
      return Status::InvalidArgument("thread pool is shut down");
    }
    jobs_rejected_->Increment();
    return Status::ResourceExhausted(
        "job queue full (capacity " + std::to_string(queue_.capacity()) +
        ")");
  }
  jobs_submitted_->Increment();
  depth_gauge_->Set(static_cast<int64_t>(queue_.depth()));
  return Status::Ok();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    auto queued = queue_.Pop();
    if (!queued.has_value()) return;  // closed and drained
    depth_gauge_->Set(static_cast<int64_t>(queue_.depth()));
    wait_micros_->Observe(MicrosSince(queued->enqueued));
    auto run_start = std::chrono::steady_clock::now();
    queued->fn();
    run_micros_->Observe(MicrosSince(run_start));
    jobs_completed_->Increment();
    FinishJob();
  }
}

void ThreadPool::FinishJob() {
  std::lock_guard<std::mutex> lock(idle_mutex_);
  if (--outstanding_ == 0) idle_cv_.notify_all();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void ThreadPool::Shutdown() {
  queue_.Close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::vector<Status> RunBatch(ThreadPool* pool,
                             std::vector<std::function<Status()>> tasks) {
  if (pool == nullptr) {
    std::vector<Status> statuses;
    statuses.reserve(tasks.size());
    for (auto& task : tasks) statuses.push_back(task());
    return statuses;
  }
  struct BatchState {
    std::mutex mutex;
    std::condition_variable done_cv;
    size_t remaining;
    std::vector<Status> statuses;
  };
  auto state = std::make_shared<BatchState>();
  state->remaining = tasks.size();
  state->statuses.resize(tasks.size());
  if (tasks.empty()) return {};

  auto run_one = [state](size_t i, const std::function<Status()>& task) {
    Status status = task();
    std::lock_guard<std::mutex> lock(state->mutex);
    state->statuses[i] = std::move(status);
    if (--state->remaining == 0) state->done_cv.notify_all();
  };

  for (size_t i = 0; i < tasks.size(); ++i) {
    auto task = std::move(tasks[i]);
    Status submitted =
        pool->Submit([run_one, i, task] { run_one(i, task); });
    if (!submitted.ok()) {
      // Queue full (kReject) or pool unusable: degrade to inline
      // execution so the batch always completes.
      run_one(i, task);
    }
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&state] { return state->remaining == 0; });
  return std::move(state->statuses);
}

}  // namespace service
}  // namespace auditdb
