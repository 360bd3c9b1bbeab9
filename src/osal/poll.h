// Readiness waits: a deadline-bounded poll(2) on one descriptor, and the
// epoll(7) multiplexer and wakeup eventfd behind the event-driven servers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "osal/fd.h"

namespace rr::osal {

// The "unbounded" sentinel: a wait gated by kNoDeadline blocks forever.
inline constexpr TimePoint kNoDeadline = TimePoint::max();

// Blocks until `fd` is readable or the deadline expires; kDeadlineExceeded
// on expiry. POLLERR/POLLHUP count as ready: the subsequent I/O call
// surfaces the actual error (EPIPE, EOF, ...), which is more precise than
// anything poll reports.
Status WaitReadable(int fd, TimePoint deadline);

// Switches an fd's O_NONBLOCK flag. Event-loop descriptors (listener and
// accepted connections of the epoll server) must never block the loop; their
// I/O calls return EAGAIN instead and the loop re-arms for readiness.
Status SetNonBlocking(int fd, bool enabled);

// Readiness multiplexer over epoll(7): the level-triggered heart of the
// event-driven servers (one loop thread watching thousands of fds, versus
// WaitReadable's one-fd-per-blocked-thread shape). Each registered fd
// carries a caller-chosen 64-bit tag returned with its events.
class Epoll {
 public:
  // Event bits (combinable). kReadable maps to EPOLLIN, kWritable to
  // EPOLLOUT; kError covers EPOLLERR | EPOLLHUP, which epoll reports even
  // when not requested — the owning I/O call surfaces the actual error.
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kWritable = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;

  struct Event {
    uint64_t tag = 0;
    uint32_t events = 0;  // kReadable / kWritable / kError bits
  };

  static Result<Epoll> Create();

  Epoll(Epoll&&) = default;
  Epoll& operator=(Epoll&&) = default;

  Status Add(int fd, uint32_t events, uint64_t tag);
  Status Modify(int fd, uint32_t events, uint64_t tag);
  Status Remove(int fd);

  // Blocks until at least one registered fd is ready or `timeout` elapses
  // (negative = unbounded), appending ready events to `out` (cleared first).
  // Returns Ok with an empty `out` on timeout; EINTR retries internally.
  Status Wait(std::vector<Event>& out, Nanos timeout);

  int fd() const { return fd_.get(); }

 private:
  explicit Epoll(UniqueFd fd) : fd_(std::move(fd)) {}

  UniqueFd fd_;
};

// Cross-thread wakeup for an epoll loop, on eventfd(2). Any thread may
// Signal(); the loop watches fd() for readability and Drain()s on wake.
// Signal is async-signal-safe-grade cheap: one write(2) of a counter.
class EventFd {
 public:
  static Result<EventFd> Create();

  EventFd(EventFd&&) = default;
  EventFd& operator=(EventFd&&) = default;

  int fd() const { return fd_.get(); }

  void Signal();
  void Drain();

 private:
  explicit EventFd(UniqueFd fd) : fd_(std::move(fd)) {}

  UniqueFd fd_;
};

}  // namespace rr::osal
