#ifndef PTC_RUNTIME_THREAD_POOL_HPP
#define PTC_RUNTIME_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

/// Host-side execution runtime for the multi-tile accelerator: a fork-join
/// thread pool that the `Accelerator` uses to run per-core tile shards
/// concurrently and that the sweep helpers use to parallelize parameter
/// grids.  All scheduling here is *host* scheduling — simulated hardware
/// results never depend on thread interleaving (see runtime/accelerator.hpp
/// for the determinism contract).
namespace ptc::runtime {

/// Fixed-size fork-join thread pool whose one operation is parallel_for.
///
/// A call publishes its index range, wakes at most min(size(), count - 1)
/// sleeping workers, and the calling thread and those workers claim indices
/// from one atomic counter until the range is done.  One range is in flight
/// at a time: a one-index range, and a call made while another range runs
/// (nested inside a body, or from a second thread), run on the calling
/// thread, so nesting cannot deadlock.  Workers block on a condition
/// variable between ranges, and the pool allocates nothing per call.
class ThreadPool {
 public:
  /// The loop body: a non-owning reference to the caller's
  /// `void(std::size_t)` callable.  parallel_for calls it only before it
  /// returns, so a lambda passed in place is neither copied nor allocated.
  class Body {
   public:
    template <class F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, Body> &&
               std::is_invocable_v<F&, std::size_t>)
    Body(F&& body)  // implicit, so a lambda converts at the call
        : object_(const_cast<void*>(
              static_cast<const void*>(std::addressof(body)))),
          call_(&invoke<std::remove_reference_t<F>>) {}

    void operator()(std::size_t i) const { call_(object_, i); }

   private:
    template <class F>
    static void invoke(void* object, std::size_t i) {
      (*static_cast<F*>(object))(i);
    }

    void* object_;
    void (*call_)(void*, std::size_t);
  };

  /// Spawns `threads` workers; 0 picks std::thread::hardware_concurrency()
  /// (at least 1).  The thread calling parallel_for takes a share as well.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Runs body(i) exactly once for every i in [begin, end) and returns when
  /// all have finished.  Every index runs even when one throws; the first
  /// exception is then rethrown.
  void parallel_for(std::size_t begin, std::size_t end, const Body& body);

 private:
  void worker_loop();
  /// Claims indices of the published range until none is left below `end`.
  void claim(const Body& body, std::size_t end);

  std::atomic<bool> in_flight_{false};  ///< a range is published
  std::atomic<std::size_t> next_{0};    ///< next unclaimed index
  std::mutex mutex_;                    ///< guards body_ through stop_
  std::condition_variable wake_;        ///< workers: a range was published
  std::condition_variable done_;        ///< caller: the last helper left
  const Body* body_ = nullptr;
  std::size_t end_ = 0;
  std::size_t wanted_ = 0;  ///< woken workers still allowed to join
  std::size_t joined_ = 0;  ///< workers inside the range
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< last: workers use every member
};

}  // namespace ptc::runtime

#endif  // PTC_RUNTIME_THREAD_POOL_HPP
