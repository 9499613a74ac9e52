// Fixture: malformed and dead suppressions are themselves findings. Not
// compiled — read only by muzha-lint.
#include <cstdlib>

int lazy() {
  // muzha-lint: allow(banned-rand) -- expect: bad-suppression
  int a = std::rand();  // expect: banned-rand
  // muzha-lint: allow(no-such-rule): typo'd id -- expect: unknown-rule
  // muzha-lint: allow(banned-wall-clock): nothing here reads the clock -- expect: unused-suppression
  return a;
}

// The worker-thread family goes through the same meta checks: a suppression
// of a thread rule with no justification, a misspelled thread rule id, and
// a justified thread suppression with nothing to suppress (this file is not
// model code, so the static below never fires mutable-static).
int thread_lazy() {
  // muzha-lint: allow(mutable-static) -- expect: bad-suppression
  static int calls = 0;
  // muzha-lint: allow(thread-unsafe): no such rule family member -- expect: unknown-rule
  // muzha-lint: allow(lock-discipline): no primitive on the next line -- expect: unused-suppression
  return ++calls;
}

// Meta rules themselves cannot be suppressed: naming one is unknown-rule.
// muzha-lint: allow(unused-suppression): trying to silence the meta layer -- expect: unknown-rule
