// Fixture: lock-discipline fires on synchronization primitives (and the
// headers that smuggle them in) inside src/ but outside the threaded-runtime
// allowlist — this file classifies as src/tcp/, which must be lock-free by
// worker isolation. The allowlisted spellings live in the companion fixture
// src/scenario/batch_runner.cc.
#include <mutex>   // expect: lock-discipline
#include <atomic>  // expect: lock-discipline
#include <thread>  // expect: lock-discipline
#include <vector>

namespace muzha {

class CongestionShared {
 public:
  void bump() {
    std::lock_guard<std::mutex> lock(mu_);  // expect: lock-discipline
    ++total_;
  }

 private:
  std::mutex mu_;                 // expect: lock-discipline
  std::atomic<int> total_{0};     // expect: lock-discipline
  std::vector<int> fine_;
};

inline void spawn_helper() {
  std::thread t([] {});  // expect: lock-discipline
  t.join();
}

}  // namespace muzha
