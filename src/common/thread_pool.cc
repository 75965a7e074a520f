#include "common/thread_pool.h"

#include <algorithm>

namespace ms {

namespace {
thread_local size_t tls_worker_index = ThreadPool::kNotAWorker;
}  // namespace

size_t ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t chunks = std::min(n, workers_.size() * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    Submit([&, c] {
      const size_t begin = c * chunk_size;
      const size_t end = std::min(n, begin + chunk_size);
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  WaitIdle();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace ms
