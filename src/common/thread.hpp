// Library threads start with the drain signals blocked.
//
// A process-directed SIGTERM/SIGINT goes to any one thread that does not
// block it. net::NetServer turns those signals into a graceful drain by
// waiting for them with sigtimedwait on one watcher thread; if any other
// thread leaves them unblocked, the kernel may deliver there and run the
// default action (terminate the process) instead. Blocking them in main()
// reaches only threads created afterwards, so every thread the library
// starts — kernel pool, serve workers and watchdog, fleet supervisor, net
// reactor and watcher — is created through spawn_thread().
#pragma once

#include <pthread.h>
#include <signal.h>

#include <thread>
#include <utility>

namespace onesa {

/// SIGTERM + SIGINT: the signals net::NetServer turns into a graceful drain.
inline sigset_t drain_signal_set() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  return set;
}

/// std::thread(fn) whose thread starts with the drain signals blocked. The
/// creator blocks them around the construction (a new thread inherits its
/// creator's mask), so there is no window in which the new thread runs
/// with them unblocked; the creator's own mask is restored afterwards, also
/// when construction throws.
template <typename Fn>
std::thread spawn_thread(Fn&& fn) {
  const sigset_t drain = drain_signal_set();
  sigset_t previous;
  pthread_sigmask(SIG_BLOCK, &drain, &previous);
  struct Restore {
    const sigset_t& mask;
    ~Restore() { pthread_sigmask(SIG_SETMASK, &mask, nullptr); }
  } restore{previous};
  return std::thread(std::forward<Fn>(fn));
}

}  // namespace onesa
