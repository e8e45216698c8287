#include "net/event_loop.h"

#include <sys/epoll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/eventfd.h>
#define ACCDB_HAVE_EVENTFD 1
#endif

#include <utility>

namespace accdb::net {

EventLoop::EventLoop() {
  epoll_ = ScopedFd(::epoll_create1(0));
  if (!epoll_.valid()) {
    status_ = Status::Internal("epoll_create1 failed");
    return;
  }

#ifdef ACCDB_HAVE_EVENTFD
  int efd = ::eventfd(0, EFD_NONBLOCK);
  if (efd >= 0) {
    wake_read_ = ScopedFd(efd);
    wake_write_fd_ = efd;
    use_eventfd_ = true;
  }
#endif
  if (!use_eventfd_) {
    // Fallback: classic self-pipe.
    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0) {
      status_ = Status::Internal("pipe: wake pipe creation failed");
      return;
    }
    wake_read_ = ScopedFd(pipe_fds[0]);
    wake_write_ = ScopedFd(pipe_fds[1]);
    wake_write_fd_ = wake_write_.get();
    status_ = SetNonBlocking(wake_read_.get());
    if (status_.ok()) status_ = SetNonBlocking(wake_write_.get());
    if (!status_.ok()) return;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_read_.get(), &ev) < 0) {
    status_ = Status::Internal("epoll_ctl: registering wake fd failed");
  }
}

EventLoop::~EventLoop() = default;

Status EventLoop::UpdateInterest(int fd, bool want_write, int op) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), op, fd, &ev) < 0) {
    return Status::Internal("epoll_ctl failed");
  }
  return Status::Ok();
}

void EventLoop::Add(int fd, FdHandler handler) {
  fds_[fd] = FdState{std::move(handler), /*want_write=*/false};
  (void)UpdateInterest(fd, /*want_write=*/false, EPOLL_CTL_ADD);
}

void EventLoop::SetWriteInterest(int fd, bool enabled) {
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.want_write == enabled) return;
  it->second.want_write = enabled;
  (void)UpdateInterest(fd, enabled, EPOLL_CTL_MOD);
}

void EventLoop::Remove(int fd) {
  if (fds_.erase(fd) > 0) {
    // The caller may close the fd right after; deregister explicitly so a
    // still-open duplicate can't keep delivering events.
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EventLoop::Defer(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    deferred_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  Wake();
}

void EventLoop::Wake() {
  // Best-effort: a saturated counter/pipe already guarantees a pending
  // wakeup.
  if (use_eventfd_) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wake_write_fd_, &one, sizeof(one));
  } else {
    char byte = 0;
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void EventLoop::DrainWake() {
  if (use_eventfd_) {
    uint64_t count = 0;
    [[maybe_unused]] ssize_t n =
        ::read(wake_read_.get(), &count, sizeof(count));
  } else {
    char buf[256];
    while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
    }
  }
}

std::vector<std::function<void()>> EventLoop::TakeDeferred() {
  std::lock_guard<std::mutex> guard(mu_);
  return std::exchange(deferred_, {});
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  for (;;) {
    // Deferred tasks first: they may register fds, queue writes, or stop.
    for (std::function<void()>& task : TakeDeferred()) task();
    // One batched-output pass per iteration: everything the tasks (and the
    // previous iteration's fd handlers) queued gets flushed here — in
    // particular before a Stop() enqueued behind those tasks is honored.
    if (post_event_hook_) post_event_hook_();
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (stop_) return;
    }

    int n = ::epoll_wait(epoll_.get(), events, kMaxEvents,
                         /*timeout_ms=*/1000);
    if (n < 0) continue;  // EINTR.

    for (int i = 0; i < n; ++i) {
      const uint32_t revents = events[i].events;
      const int fd = events[i].data.fd;
      if (fd == wake_read_.get()) {
        DrainWake();
        continue;
      }
      // A handler earlier in this batch may have removed this fd (and the
      // fd number may even have been reused — but not within one batch,
      // since only the loop thread closes registered fds).
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      uint32_t mask = 0;
      if (revents & EPOLLIN) mask |= kReadable;
      if (revents & EPOLLOUT) mask |= kWritable;
      if (revents & (EPOLLERR | EPOLLHUP)) mask |= kError;
      // Copy the handler: it may Remove(fd), invalidating `it`.
      FdHandler handler = it->second.handler;
      handler(mask);
    }
  }
}

}  // namespace accdb::net
