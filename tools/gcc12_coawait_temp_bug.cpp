// Standalone reproducer: GCC 12 double-destroys a non-trivial temporary
// argument of an awaited coroutine call when the callee suspends.
#include <coroutine>
#include <cstdio>
#include <memory>

struct Task {
  struct promise_type {
    std::coroutine_handle<> Cont;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() { return {}; }
    struct Final {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> H) noexcept {
        auto C = H.promise().Cont;
        return C ? C : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    Final final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
  std::coroutine_handle<promise_type> H;
  bool await_ready() { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> A) {
    H.promise().Cont = A;
    return H;
  }
  void await_resume() {}
  ~Task() { if (H) H.destroy(); }
  Task(std::coroutine_handle<promise_type> h) : H(h) {}
  Task(Task&& o) : H(o.H) { o.H = nullptr; }
};

std::coroutine_handle<> Pending;

struct Suspend {
  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h) { Pending = h; }
  void await_resume() {}
};

template <typename F> Task callee(F fn) {
  co_await Suspend{};   // suspend across the full expression
  fn();
}

Task caller(std::shared_ptr<int> p) {
  // The miscompiled shape itself.
  co_await callee([p] { std::printf("use %d\n", *p); });
  std::printf("after, count=%ld\n", (long)p.use_count());
}

int main() {
  auto p = std::make_shared<int>(42);
  std::printf("count before %ld\n", (long)p.use_count());
  Task t = caller(p);
  t.H.resume();               // runs to Suspend
  std::printf("count suspended %ld\n", (long)p.use_count());
  Pending.resume();           // completes
  std::printf("count after %ld\n", (long)p.use_count());
}
