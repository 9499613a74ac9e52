// Fixture: relaxed-atomic fires on weak memory orderings and raw fences
// wherever they appear — this file classifies as src/core/. The
// atomic vocabulary itself also violates lock-discipline here, so those
// lines carry both expectations.
#include <atomic>  // expect: lock-discipline

namespace muzha {

std::atomic<int> g_mark_count{0};  // expect: lock-discipline

inline int sample_relaxed() {
  return g_mark_count.load(std::memory_order_relaxed);  // expect: relaxed-atomic
}

inline void publish_unfenced() {
  std::atomic_thread_fence(std::memory_order_acquire);  // expect: relaxed-atomic, lock-discipline
}

inline int sample_seq_cst() {
  return g_mark_count.load();  // seq_cst default: relaxed-atomic stays quiet
}

// muzha-lint: allow(relaxed-atomic): fixture proves a justified suppression is honored
inline int sample_suppressed() { return g_mark_count.load(std::memory_order_relaxed); }

}  // namespace muzha
