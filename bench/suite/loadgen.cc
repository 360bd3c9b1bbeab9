#include "loadgen.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cmath>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include "http/parser.h"
#include "osal/socket.h"
#include "probes.h"

namespace rrbench {
namespace {

using rr::osal::Epoll;

// How long a phase waits for stragglers before counting them as timeouts.
constexpr int64_t kDrainNs = 10'000'000'000;

void ArmAt(int timer_fd, int64_t ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  ::timerfd_settime(timer_fd, TFD_TIMER_ABSTIME, &spec, nullptr);
}

// --- HTTP: keep-alive, pipelined connections to the gateway ------------------

class HttpGen final : public LoadGen {
 public:
  HttpGen(Epoll epoll, rr::osal::UniqueFd timer, const Inputs* inputs,
          Recorder* recorder, uint64_t* next_id, uint16_t port,
          size_t connections)
      : LoadGen(std::move(epoll), std::move(timer), inputs, recorder,
                next_id),
        port_(port),
        conns_(connections) {
    head_ = std::string("POST /v1/invoke/") + kRoute +
            " HTTP/1.1\r\nHost: rr-bench\r\nAuthorization: Bearer " + kToken +
            "\r\nContent-Type: application/octet-stream\r\nContent-Length: " +
            std::to_string(inputs->input_bytes()) + "\r\n\r\n";
  }

  rr::Status ConnectAll() {
    for (size_t lane = 0; lane < conns_.size(); ++lane) {
      RR_RETURN_IF_ERROR(Connect(lane));
    }
    return rr::Status::Ok();
  }

 private:
  struct Conn {
    rr::osal::Connection conn;
    rr::http::ResponseParser parser;
    std::deque<uint64_t> pending;  // sent, unanswered, in order
    std::string outbox;
    size_t sent = 0;
    // (id, outbox offset where its bytes end): stamps kSendDone.
    std::deque<std::pair<uint64_t, size_t>> marks;
    bool want_write = false;
  };

  size_t lanes() const override { return conns_.size(); }

  int64_t Send(uint64_t id, size_t lane) override {
    Conn& c = conns_[lane];
    c.outbox += head_;
    inputs_->AppendBody(id, &c.outbox);
    const int64_t start = NowNs();
    if (recorder_->active()) recorder_->MarkAt(id, kSendStart, start);
    c.marks.emplace_back(id, c.outbox.size());
    c.pending.push_back(id);
    Flush(lane);
    return start;
  }

  void OnEvent(const Epoll::Event& event) override {
    const size_t lane = event.tag - 1;
    if (event.events & (Epoll::kReadable | Epoll::kError)) Read(lane);
    if (event.events & Epoll::kWritable) Flush(lane);
  }

  void Abandon() override {
    for (size_t lane = 0; lane < conns_.size(); ++lane) {
      if (!conns_[lane].pending.empty()) Reset(lane);
    }
  }

  rr::Status Connect(size_t lane) {
    Conn& c = conns_[lane];
    RR_ASSIGN_OR_RETURN(c.conn, rr::osal::TcpConnect("127.0.0.1", port_));
    c.conn.SetNoDelay(true);
    RR_RETURN_IF_ERROR(rr::osal::SetNonBlocking(c.conn.fd(), true));
    return epoll_.Add(c.conn.fd(), Epoll::kReadable, lane + 1);
  }

  // Drops the connection and its requests (a broken or desynced stream)
  // and dials a fresh one.
  void Reset(size_t lane) {
    Conn& c = conns_[lane];
    const std::deque<uint64_t> lost = std::move(c.pending);
    if (c.conn.valid()) (void)epoll_.Remove(c.conn.fd());
    c = Conn{};
    const int64_t now = NowNs();
    for (uint64_t id : lost) Settle(id, now, /*ok=*/false, /*wrong=*/false);
    (void)Connect(lane);
  }

  void SetWritable(size_t lane, bool on) {
    Conn& c = conns_[lane];
    if (c.want_write == on) return;
    c.want_write = on;
    (void)epoll_.Modify(c.conn.fd(),
                        Epoll::kReadable | (on ? Epoll::kWritable : 0u),
                        lane + 1);
  }

  void Flush(size_t lane) {
    Conn& c = conns_[lane];
    while (c.sent < c.outbox.size()) {
      const ssize_t n =
          ::send(c.conn.fd(), c.outbox.data() + c.sent, c.outbox.size() - c.sent,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.sent += static_cast<size_t>(n);
        const int64_t now = NowNs();
        while (!c.marks.empty() && c.marks.front().second <= c.sent) {
          if (recorder_->active()) {
            recorder_->MarkAt(c.marks.front().first, kSendDone, now);
          }
          c.marks.pop_front();
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        SetWritable(lane, true);
        return;
      }
      Reset(lane);
      return;
    }
    c.outbox.clear();
    c.sent = 0;
    SetWritable(lane, false);
  }

  void Read(size_t lane) {
    char buffer[64 * 1024];
    std::vector<rr::http::Response> responses;
    while (true) {
      Conn& c = conns_[lane];
      const ssize_t n = ::recv(c.conn.fd(), buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        Reset(lane);  // EOF or hard error
        return;
      }
      responses.clear();
      if (!c.parser
               .Feed(rr::ByteSpan(reinterpret_cast<const uint8_t*>(buffer),
                                  static_cast<size_t>(n)),
                     &responses)
               .ok() ||
          responses.size() > c.pending.size()) {
        Reset(lane);
        return;
      }
      const int64_t now = NowNs();
      std::vector<uint64_t> ids;
      for (size_t i = 0; i < responses.size(); ++i) {
        ids.push_back(c.pending.front());
        c.pending.pop_front();
        if (recorder_->active()) recorder_->MarkAt(ids.back(), kParsed, now);
      }
      for (size_t i = 0; i < responses.size(); ++i) Freed(lane, now);
      for (size_t i = 0; i < responses.size(); ++i) {
        const rr::http::Response& response = responses[i];
        const bool ok200 = response.status_code == 200;
        const bool correct =
            ok200 && Verify(rr::ByteSpan(response.body),
                            inputs_->ExpectedFor(ids[i]), ids[i]);
        Settle(ids[i], now, correct, ok200 && !correct);
      }
    }
  }

  const uint16_t port_;
  std::vector<Conn> conns_;
  std::string head_;
};

// --- Submit: Runtime::Submit with NotifyDone completions ---------------------

class SubmitGen final : public LoadGen {
 public:
  // Completions cross from runtime driver threads to the generator. Shared
  // with every NotifyDone callback, so a callback that fires late (during
  // runtime teardown) never touches a dead generator.
  struct Mailbox {
    struct Done {
      uint64_t id;
      size_t lane;
      int64_t at;
    };
    explicit Mailbox(rr::osal::EventFd fd) : wake(std::move(fd)) {}

    std::mutex mutex;
    std::vector<Done> items;  // guarded by mutex
    rr::osal::EventFd wake;
  };

  SubmitGen(Epoll epoll, rr::osal::UniqueFd timer, const Inputs* inputs,
            Recorder* recorder, uint64_t* next_id, System* system,
            std::shared_ptr<Mailbox> mailbox, size_t lanes)
      : LoadGen(std::move(epoll), std::move(timer), inputs, recorder,
                next_id),
        system_(system),
        mailbox_(std::move(mailbox)),
        lanes_(lanes) {}

 private:
  size_t lanes() const override { return lanes_; }

  int64_t Send(uint64_t id, size_t lane) override {
    rr::Buffer payload = inputs_->Payload(id);
    const int64_t start = NowNs();
    auto invocation = system_->submit(std::move(payload));
    const int64_t returned = NowNs();
    if (recorder_->active()) {
      recorder_->MarkAt(id, kSendStart, start);
      recorder_->MarkAt(id, kSendDone, returned);
    }
    if (!invocation.ok()) return 0;
    (*invocation)->NotifyDone([mailbox = mailbox_, recorder = recorder_, id,
                               lane] {
      const int64_t at = NowNs();
      if (recorder->active()) recorder->MarkAt(id, kDone, at);
      bool was_empty = false;
      {
        std::lock_guard<std::mutex> lock(mailbox->mutex);
        was_empty = mailbox->items.empty();
        mailbox->items.push_back({id, lane, at});
      }
      if (was_empty) mailbox->wake.Signal();
    });
    inflight_.emplace(id, std::move(*invocation));
    return start;
  }

  void OnEvent(const Epoll::Event&) override {
    mailbox_->wake.Drain();
    std::vector<Mailbox::Done> done;
    {
      std::lock_guard<std::mutex> lock(mailbox_->mutex);
      done.swap(mailbox_->items);
    }
    for (const Mailbox::Done& item : done) Freed(item.lane, item.at);
    for (const Mailbox::Done& item : done) {
      const auto it = inflight_.find(item.id);
      if (it == inflight_.end()) continue;  // abandoned at a drain deadline
      const rr::Result<rr::Buffer>& result = it->second->Wait();
      const bool correct =
          result.ok() &&
          Verify(*result, inputs_->ExpectedFor(item.id), item.id);
      Settle(item.id, item.at, correct, result.ok() && !correct);
      inflight_.erase(it);
    }
  }

  void Abandon() override { inflight_.clear(); }

  System* const system_;
  const std::shared_ptr<Mailbox> mailbox_;
  const size_t lanes_;
  std::unordered_map<uint64_t, std::shared_ptr<rr::api::Invocation>> inflight_;
};

}  // namespace

rr::Result<std::unique_ptr<LoadGen>> LoadGen::Create(const WorkloadDef& def,
                                                     System* system,
                                                     const Inputs* inputs,
                                                     Recorder* recorder,
                                                     uint64_t* next_id) {
  RR_ASSIGN_OR_RETURN(Epoll epoll, Epoll::Create());
  rr::osal::UniqueFd timer(
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (!timer.valid()) return rr::ErrnoToStatus(errno, "timerfd_create");
  RR_RETURN_IF_ERROR(epoll.Add(timer.get(), Epoll::kReadable, kTimerTag));

  if (def.http) {
    auto gen = std::make_unique<HttpGen>(std::move(epoll), std::move(timer),
                                         inputs, recorder, next_id,
                                         system->gateway->port(),
                                         def.outstanding);
    RR_RETURN_IF_ERROR(gen->ConnectAll());
    return std::unique_ptr<LoadGen>(std::move(gen));
  }
  RR_ASSIGN_OR_RETURN(rr::osal::EventFd wake, rr::osal::EventFd::Create());
  RR_RETURN_IF_ERROR(epoll.Add(wake.fd(), Epoll::kReadable, 1));
  auto mailbox = std::make_shared<SubmitGen::Mailbox>(std::move(wake));
  return std::unique_ptr<LoadGen>(std::make_unique<SubmitGen>(
      std::move(epoll), std::move(timer), inputs, recorder, next_id, system,
      std::move(mailbox), def.outstanding));
}

bool LoadGen::Issuing(int64_t at) const {
  return at < end_ns_ && (config_.max_ops == 0 || issued_ < config_.max_ops);
}

void LoadGen::Issue(size_t lane, int64_t due_ns) {
  const uint64_t id = (*next_id_)++;
  ++issued_;
  ++result_.attempted;
  if (config_.trace) {
    recorder_->Reserve(id);
    recorder_->MarkAt(id, kDue, due_ns);
  }
  const int64_t start = Send(id, lane);
  if (start == 0) {
    ++result_.failed;
    return;
  }
  origins_[id] = config_.open_loop ? due_ns : start;
  ++outstanding_;
}

void LoadGen::Freed(size_t lane, int64_t end_ns) {
  if (!config_.open_loop && Issuing(NowNs())) Issue(lane, end_ns);
}

void LoadGen::Settle(uint64_t id, int64_t end_ns, bool ok, bool wrong) {
  const auto it = origins_.find(id);
  if (it == origins_.end()) return;
  const int64_t origin = it->second;
  origins_.erase(it);
  --outstanding_;
  if (!ok) {
    ++result_.failed;
    if (wrong) ++result_.wrong;
    return;
  }
  ++result_.ok;
  result_.latency_us.push_back(static_cast<double>(end_ns - origin) / 1e3);
  if (end_ns <= end_ns_) ++result_.ok_in_window;
}

PhaseResult LoadGen::Run(const PhaseConfig& config) {
  config_ = config;
  result_ = PhaseResult{};
  issued_ = 0;
  const int64_t start = NowNs();
  end_ns_ = start + config.duration.count();
  const int64_t drain_deadline = end_ns_ + kDrainNs;
  result_.window_s = rr::ToSeconds(config.duration);
  if (config.trace) recorder_->Start(*next_id_);

  uint64_t scheduled = 0;
  int64_t next_due = start;
  if (!config.open_loop) {
    for (size_t lane = 0; lane < config.outstanding; ++lane) {
      if (Issuing(start)) Issue(lane, start);
    }
  }
  std::vector<Epoll::Event> events;
  while (true) {
    const int64_t now = NowNs();
    if (config.open_loop) {
      while (next_due <= now && Issuing(next_due)) {
        Issue(scheduled % lanes(), next_due);
        ++scheduled;
        next_due = start + std::llround(static_cast<double>(scheduled) * 1e9 /
                                        config.rate);
      }
    }
    const bool sending =
        config.open_loop ? Issuing(next_due) : Issuing(now);
    if (!sending && outstanding_ == 0) break;
    if (now >= drain_deadline) break;
    ArmAt(timer_.get(), sending ? (config.open_loop ? next_due : end_ns_)
                                : drain_deadline);
    if (!epoll_.Wait(events, std::chrono::milliseconds(100)).ok()) break;
    for (const Epoll::Event& event : events) {
      if (event.tag == kTimerTag) {
        uint64_t expirations = 0;  // drained only to re-arm readiness
        (void)!::read(timer_.get(), &expirations, sizeof(expirations));
      } else {
        OnEvent(event);
      }
    }
    result_.queue_depth_sum += static_cast<double>(DagQueueDepth());
    ++result_.queue_depth_samples;
  }
  if (outstanding_ > 0) {  // timeouts
    result_.failed += outstanding_;
    outstanding_ = 0;
    origins_.clear();
    Abandon();
  }
  if (config.trace) recorder_->Stop();
  result_.end_id = *next_id_;
  return result_;
}

}  // namespace rrbench
