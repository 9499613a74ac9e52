// Fixture: this path classifies as src/scenario/batch_runner.cc, the worker
// pool whose job IS synchronization. Locks, condition variables and atomics
// are allowlisted here for lock-discipline, so they report nothing; relaxed
// orderings and raw fences still need a justified suppression even here.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace muzha {

class FixturePool {
 public:
  void post() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
    ready_.store(true, std::memory_order_relaxed);  // expect: relaxed-atomic
    std::atomic_thread_fence(std::memory_order_release);  // expect: relaxed-atomic
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> ready_{false};
  int epoch_ = 0;
};

}  // namespace muzha
