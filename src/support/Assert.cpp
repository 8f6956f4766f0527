//===- Assert.cpp - Assertions and fatal errors --------------------------===//

#include "src/support/Assert.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace lvish;

// Serializes fatal reports so concurrent failures print one message.
static std::atomic<bool> FatalReported{false};

void lvish::fatalError(const char *Msg) {
  bool Expected = false;
  if (!FatalReported.compare_exchange_strong(Expected, true)) {
    // Another thread is reporting. Aborting here could end the process
    // before its message is out, so wait for its abort instead.
    for (;;)
      std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  std::fprintf(stderr, "lvish fatal error: %s\n", Msg);
  std::fflush(stderr);
  std::abort();
}

void lvish::unreachableInternal(const char *Msg, const char *File,
                                unsigned Line) {
  std::fprintf(stderr, "lvish internal error at %s:%u: %s\n", File, Line, Msg);
  std::fflush(stderr);
  std::abort();
}
