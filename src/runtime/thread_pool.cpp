#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace ptc::runtime {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stop_ || wanted_ > 0; });
    if (stop_) return;
    --wanted_;
    ++joined_;
    const Body& body = *body_;
    const std::size_t end = end_;
    lock.unlock();
    claim(body, end);
    lock.lock();
    if (--joined_ == 0) done_.notify_one();
  }
}

void ThreadPool::claim(const Body& body, std::size_t end) {
  for (std::size_t i = next_++; i < end; i = next_++) {
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const Body& body) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  // One range at a time.  The busy mark is an atomic flag, not a mutex held
  // across the range: a nested call would lock it on the thread holding it.
  if (count == 1 || in_flight_.exchange(true)) {
    std::exception_ptr error;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  const std::size_t helpers = std::min(size(), count - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    end_ = end;
    wanted_ = helpers;
    next_ = begin;
  }
  for (std::size_t k = 0; k < helpers; ++k) wake_.notify_one();
  claim(body, end);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    wanted_ = 0;  // a worker woken too late must not join a finished range
    done_.wait(lock, [this] { return joined_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  in_flight_ = false;
  if (error) std::rethrow_exception(error);
}

}  // namespace ptc::runtime
