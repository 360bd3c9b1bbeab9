#include "osal/poll.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

namespace rr::osal {

namespace {

Status WaitEvent(int fd, short events, TimePoint deadline, const char* what) {
  while (true) {
    int timeout_ms = -1;
    if (deadline != kNoDeadline) {
      const Nanos remaining = deadline - Now();
      if (remaining <= Nanos{0}) {
        return DeadlineExceededError(std::string(what) +
                                     ": transfer deadline expired");
      }
      // Round up so a sub-millisecond remainder still polls once instead of
      // spinning with timeout 0; clamp so a far-future deadline (> ~24.8
      // days of int milliseconds) cannot overflow into poll's "negative =
      // infinite" — the loop re-checks the deadline after each round.
      const int64_t ms =
          std::chrono::ceil<std::chrono::milliseconds>(remaining).count();
      timeout_ms = static_cast<int>(
          std::min<int64_t>(ms, std::numeric_limits<int>::max()));
    }
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "poll");
    }
    if (n == 0) continue;  // timed out this round; the deadline check decides
    return Status::Ok();
  }
}

}  // namespace

Status WaitReadable(int fd, TimePoint deadline) {
  return WaitEvent(fd, POLLIN, deadline, "wait readable");
}

Status SetNonBlocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoToStatus(errno, "fcntl(F_GETFL)");
  const int updated = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (updated != flags && ::fcntl(fd, F_SETFL, updated) < 0) {
    return ErrnoToStatus(errno, "fcntl(F_SETFL)");
  }
  return Status::Ok();
}

namespace {

uint32_t ToEpollBits(uint32_t events) {
  uint32_t bits = 0;
  if (events & Epoll::kReadable) bits |= EPOLLIN;
  if (events & Epoll::kWritable) bits |= EPOLLOUT;
  return bits;
}

uint32_t FromEpollBits(uint32_t bits) {
  uint32_t events = 0;
  if (bits & (EPOLLIN | EPOLLRDHUP)) events |= Epoll::kReadable;
  if (bits & EPOLLOUT) events |= Epoll::kWritable;
  if (bits & (EPOLLERR | EPOLLHUP)) events |= Epoll::kError;
  return events;
}

}  // namespace

Result<Epoll> Epoll::Create() {
  const int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) return ErrnoToStatus(errno, "epoll_create1");
  return Epoll(UniqueFd(fd));
}

Status Epoll::Add(int fd, uint32_t events, uint64_t tag) {
  epoll_event ev{};
  ev.events = ToEpollBits(events);
  ev.data.u64 = tag;
  if (::epoll_ctl(fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    return ErrnoToStatus(errno, "epoll_ctl(ADD)");
  }
  return Status::Ok();
}

Status Epoll::Modify(int fd, uint32_t events, uint64_t tag) {
  epoll_event ev{};
  ev.events = ToEpollBits(events);
  ev.data.u64 = tag;
  if (::epoll_ctl(fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return ErrnoToStatus(errno, "epoll_ctl(MOD)");
  }
  return Status::Ok();
}

Status Epoll::Remove(int fd) {
  if (::epoll_ctl(fd_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return ErrnoToStatus(errno, "epoll_ctl(DEL)");
  }
  return Status::Ok();
}

Status Epoll::Wait(std::vector<Event>& out, Nanos timeout) {
  out.clear();
  int timeout_ms = -1;
  if (timeout >= Nanos{0}) {
    const int64_t ms =
        std::chrono::ceil<std::chrono::milliseconds>(timeout).count();
    timeout_ms = static_cast<int>(
        std::min<int64_t>(ms, std::numeric_limits<int>::max()));
  }
  epoll_event events[128];
  while (true) {
    const int n = ::epoll_wait(fd_.get(), events, 128, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "epoll_wait");
    }
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.push_back(Event{events[i].data.u64, FromEpollBits(events[i].events)});
    }
    return Status::Ok();
  }
}

Result<EventFd> EventFd::Create() {
  const int fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (fd < 0) return ErrnoToStatus(errno, "eventfd");
  return EventFd(UniqueFd(fd));
}

void EventFd::Signal() {
  const uint64_t one = 1;
  // The counter saturating (EAGAIN) still leaves the fd readable, which is
  // all a wakeup needs; other errors have no caller to report to.
  ssize_t ignored = ::write(fd_.get(), &one, sizeof(one));
  (void)ignored;
}

void EventFd::Drain() {
  uint64_t count = 0;
  ssize_t ignored = ::read(fd_.get(), &count, sizeof(count));
  (void)ignored;
}

}  // namespace rr::osal
