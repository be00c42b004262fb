// lint fixture: autofixer input. scripts/check_lint_fix.sh copies this
// file, runs `asfsim_lint --fix` on the copy, and requires that the result
// (a) re-lints clean and (b) still compiles as C++20. Self-contained on
// purpose: the fixed output is fed straight to the compiler.
#include <coroutine>

namespace fixdemo {

struct Awaiter {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  bool await_resume() const noexcept { return true; }
};

template <typename T>
struct Task {
  struct promise_type {
    Task get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

Awaiter ready();

Task<void> driver() {
  // R1: co_await in an if condition — fixed by hoisting into a local.
  if (co_await ready()) {
    co_return;
  }
}

}  // namespace fixdemo
