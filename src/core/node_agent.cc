#include "core/node_agent.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "core/mux_protocol.h"
#include "core/region_guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "osal/cpus.h"
#include "osal/reactor.h"
#include "resilience/fault_injector.h"

namespace rr::core {
namespace {

obs::Counter& AgentAcceptRetries() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_accept_retries_total",
      "Transient accept errors the agent backed off and retried");
  return *counter;
}

obs::Counter& AgentTransfersRefused() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_transfers_refused_total",
      "Streams refused with a typed error completion (pool exhausted or "
      "admission caps)");
  return *counter;
}

obs::Counter& AgentTransfersCompleted() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_transfers_completed_total",
      "Streams delivered and invoked to completion");
  return *counter;
}

obs::Gauge& AgentConnections() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_agent_connections", "Connections the node agent currently serves");
  return *gauge;
}

obs::Gauge& AgentStreamsInFlight() {
  static obs::Gauge* gauge = obs::Registry::Get().gauge(
      "rr_agent_streams_in_flight",
      "Mux streams admitted and not yet completed: receiving (into a leased "
      "guest region or the waiting room) or invoking");
  return *gauge;
}

obs::Counter& AgentCompletionFrames() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_completion_frames_total",
      "Completion frames sent (any outcome)");
  return *counter;
}

obs::Counter& AgentCompletionErrors() {
  static obs::Counter* counter = obs::Registry::Get().counter(
      "rr_agent_completion_errors_total",
      "Completion frames that carried a non-OK invocation outcome");
  return *counter;
}

// Eager registration: agent series appear in scrapes at zero, before any
// connection, stream, or refusal has happened.
const bool g_agent_metrics_registered = [] {
  AgentAcceptRetries();
  AgentTransfersRefused();
  AgentTransfersCompleted();
  AgentConnections();
  AgentStreamsInFlight();
  AgentCompletionFrames();
  AgentCompletionErrors();
  return true;
}();

// Longest function name an open frame may route to. Kept fixed and tiny —
// routing metadata, never payload.
constexpr size_t kMaxFunctionName = 256;

// Per-connection cap on COMMITTED bytes: body bytes the agent has agreed to
// hold — granted-but-unreceived window credit plus bytes already received
// (into a leased guest region, or a waiting stream's prefix) or handed to the
// invoke pool. Opens that would commit past the cap are refused with a typed
// completion, grants that would are deferred until invokes drain, and data
// beyond a stream's granted window is connection-fatal — so the cap is a hard
// memory bound (a placed region is reserved whole, but its pages commit only
// as bytes land), not advisory. A single stream larger than the cap could
// never finish, so it is refused at open.
// Default for Options::max_conn_staged_bytes == 0.
constexpr size_t kMaxConnStagedBytes = 128 * 1024 * 1024;

// Concurrent receiving streams one connection may hold. Bounds the stream
// table (an open frame is ~40 bytes; table entries must not be free to mint)
// while leaving room for the 10k-in-flight scale target over a handful of
// connections. Opens past it are refused with a typed completion.
// Default for Options::max_conn_streams == 0.
constexpr size_t kMaxConnStreams = 4096;

// Cap on outbound control bytes (acks, completions, window updates) queued
// for a peer that has stopped reading. Control frames are tiny (a completion
// is at most 528 bytes), so a backlog this deep means the peer is gone:
// exceeding it is connection-fatal.
constexpr size_t kMaxConnOutboundBytes = 4 * 1024 * 1024;

// A completion frame: the invocation outcome, not just delivery.
Bytes EncodeCompletion(uint32_t stream_id, const Status& status) {
  std::string detail(status.message());
  if (detail.size() > kMuxMaxCompletionDetail) {
    detail.resize(kMuxMaxCompletionDetail);
  }
  MuxFrameHeader h;
  h.type = kMuxFrameCompletion;
  h.stream_id = stream_id;
  h.payload_length = static_cast<uint32_t>(detail.size());
  h.aux = static_cast<uint32_t>(status.code());
  Bytes out(kMuxFrameHeaderBytes + detail.size());
  EncodeMuxFrameHeader(h, out.data());
  std::memcpy(out.data() + kMuxFrameHeaderBytes, detail.data(), detail.size());
  return out;
}

Bytes EncodeWindowUpdate(uint32_t stream_id, uint32_t credit) {
  MuxFrameHeader h;
  h.type = kMuxFrameWindowUpdate;
  h.stream_id = stream_id;
  h.aux = credit;
  Bytes out(kMuxFrameHeaderBytes);
  EncodeMuxFrameHeader(h, out.data());
  return out;
}

}  // namespace

bool IsTransientAcceptError(const Status& status) {
  // The retryable class IS the transient-accept class: kResourceExhausted
  // (EMFILE/ENFILE/ENOMEM — the node is out of fds or memory *right now*;
  // connections already being served will finish and free them),
  // kUnavailable (ECONNABORTED/EPROTO/EAGAIN — the failure belongs to one
  // aborted peer, not the listener), kDeadlineExceeded (a peer that stalled
  // its own handshake).
  return status.IsRetryable();
}

// ---------------------------------------------------------------------------
// The reactor plane: shards of epoll loops own the wire, a fixed worker pool
// owns the invokes. Connections and streams are table entries, not threads.
// ---------------------------------------------------------------------------
struct NodeAgent::ReactorPlane {
  explicit ReactorPlane(NodeAgent* agent)
      : agent(agent),
        max_conn_streams(agent->options_.max_conn_streams
                             ? agent->options_.max_conn_streams
                             : kMaxConnStreams),
        max_conn_staged_bytes(agent->options_.max_conn_staged_bytes
                                  ? agent->options_.max_conn_staged_bytes
                                  : kMaxConnStagedBytes) {}

  // The half of a connection that invoke workers (and the loop) write to.
  // Outlives the Conn via shared_ptr: a worker finishing after teardown sees
  // `dead` and fails its send instead of racing a recycled descriptor.
  //
  // Sends NEVER block: a frame is appended to a bounded outbound queue and
  // the queue is drained as far as the socket allows (MSG_DONTWAIT); a
  // backlog arms kWritable on the owning shard's reactor, whose loop drains
  // the rest as the peer reads. One peer with a full socket buffer therefore
  // costs queue bytes, never a parked loop thread or invoke worker.
  struct WriteHandle {
    Mutex mutex;
    osal::UniqueFd fd RR_GUARDED_BY(mutex);
    bool dead RR_GUARDED_BY(mutex) = false;
    std::shared_ptr<osal::Reactor> reactor;  // the owning shard's loop
    std::deque<Bytes> outq RR_GUARDED_BY(mutex);
    // Bytes of outq.front() already on the wire.
    size_t front_sent RR_GUARDED_BY(mutex) = 0;
    size_t outq_bytes RR_GUARDED_BY(mutex) = 0;
    bool writable_armed RR_GUARDED_BY(mutex) = false;

    // The connection's books. An invoke worker settles them itself when its
    // job retires; the shard hears of it (a post) only when a grant waits on
    // the bytes the job frees, or when its completion frame was lost.
    // Sum of every receiving stream's committed() plus every in-flight job's
    // body; admission and grants keep it under max_conn_staged_bytes.
    std::atomic<size_t> committed_bytes{0};
    std::atomic<size_t> jobs_inflight{0};
    // Set while a grant is deferred on the commitment cap.
    std::atomic<bool> credit_waiting{false};
    // When the last job retired: the idle sweep counts it as activity.
    std::atomic<TimePoint> last_retired{TimePoint{}};

    // Queues `frame` and drains. Callable from any thread (Reactor::Modify
    // is thread-safe). Returns false when the connection is dead, the
    // outbound backlog exceeded its cap, or the socket failed — all
    // connection-fatal for the caller.
    bool SendFrame(Bytes frame) {
      MutexLock lock(mutex);
      if (dead || !fd.valid()) return false;
      if (outq_bytes + frame.size() > kMaxConnOutboundBytes) return false;
      outq_bytes += frame.size();
      outq.push_back(std::move(frame));
      return DrainLocked();
    }

    // Sends queue frames until empty or EAGAIN; arms/disarms kWritable to
    // match the backlog. Returns false on a hard socket error.
    bool DrainLocked() RR_REQUIRES(mutex) {
      while (!outq.empty()) {
        const Bytes& front = outq.front();
        const ssize_t n =
            ::send(fd.get(), front.data() + front_sent,
                   front.size() - front_sent, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            ArmLocked(true);
            return true;
          }
          return false;
        }
        front_sent += static_cast<size_t>(n);
        if (front_sent == front.size()) {
          outq_bytes -= front.size();
          outq.pop_front();
          front_sent = 0;
        }
      }
      ArmLocked(false);
      return true;
    }

    // Re-arms interest. A Modify failure is ignored: it only happens when
    // the loop already removed the fd (teardown underway), and the queued
    // frames die with the connection anyway.
    void ArmLocked(bool writable) {
      if (writable_armed == writable || reactor == nullptr) return;
      writable_armed = writable;
      (void)reactor->Modify(fd.get(),
                            osal::Epoll::kReadable |
                                (writable ? osal::Epoll::kWritable : 0u));
    }
  };

  // Where a stream's body lands: a leased instance and the input region
  // placed in its linear memory. The shard receives body bytes straight into
  // `span`, and the invoke worker invokes on `region`. Linear memory is one
  // reserved mapping, so the span survives a guest Grow; the instance's
  // exec_mutex guards placement, invoke and release, which share the
  // region registry with readers of the instance's older outputs.
  struct Landing {
    // Held from open until the invoke: the stream's claim on its instance.
    ShimLease instance;  // rr-lint: allow(lease-member)
    MemoryRegion region{};
    MutableByteSpan span;
    bool placed = false;  // region allocated; false = the instance alone
  };

  // Allocates the input region in `landing.instance`. The caller holds the
  // instance's exec_mutex.
  static Status Place(Landing& landing, uint64_t body_len) {
    Shim& shim = *landing.instance;
    RR_ASSIGN_OR_RETURN(const MemoryRegion region,
                        shim.PrepareInput(static_cast<uint32_t>(body_len)));
    Result<MutableByteSpan> span = shim.InputSpan(region);
    if (!span.ok()) {
      (void)shim.ReleaseRegion(region);
      return span.status();
    }
    landing.region = region;
    landing.span = *span;
    landing.placed = true;
    return Status::Ok();
  }

  // Frees the region and returns the instance. Blocks on exec_mutex, so only
  // invoke workers and Shutdown call it; a shard uses DropLanding.
  static void ReleaseLanding(Landing& landing) {
    if (!landing.instance) return;
    if (landing.placed) {
      MutexLock lock(landing.instance->exec_mutex());
      (void)landing.instance->ReleaseRegion(landing.region);
      landing.placed = false;
    }
    landing.instance.Release();
  }

  // A landing in transit from a worker to its stream's shard. The shard
  // always takes the landing out; if the post never runs (the shard
  // stopped), the parcel dies off the loop and releases it there.
  struct Parcel {
    Landing landing;
    ~Parcel() { ReleaseLanding(landing); }
  };

  // Work for the invoke pool, whose threads are the only agent threads that
  // may block on an instance's exec_mutex.
  struct InvokeJob {
    enum class Kind {
      kInvoke,   // a fully received stream: invoke on its landed region
      kPlace,    // place a stream's region in a contended instance
      kRelease,  // release a dropped stream's region in a contended instance
    };
    Kind kind = Kind::kInvoke;
    std::shared_ptr<Entry> entry;
    Landing landing;
    obs::SpanContext trace;
    std::shared_ptr<WriteHandle> write;
    uint32_t stream_id = 0;
    uint64_t token = 0;
    uint64_t serial = 0;  // kPlace: the stream the region is for
    size_t shard = 0;
    uint64_t conn_id = 0;
    // The body's length: what a kInvoke job holds against the connection's
    // commitment cap, and what a kPlace job places.
    uint64_t body_len = 0;
  };

  // One logical transfer on a connection, while its body arrives. A placed
  // stream receives into its landing. A stream without one — waiting for an
  // instance, or a worker placing its region — buffers into `prefix`, at
  // most its initial window: it earns no further credit until it lands,
  // and then the prefix is copied into the region once. The declared length
  // is a promise, not an allocation: a region commits pages only as bytes
  // arrive, and a prefix never exceeds what the open already committed.
  struct Stream {
    uint64_t token = 0;
    uint64_t serial = 0;  // shard-unique: tells a reused stream id apart
    std::shared_ptr<Entry> entry;
    uint64_t body_len = 0;
    uint64_t got = 0;
    // Total window bytes extended to the sender (initial + grants). Data
    // past it is a flow-control violation and connection-fatal, which is
    // what makes the commitment cap a hard bound.
    uint64_t credit = 0;
    // Body bytes consumed since the last window grant.
    size_t ungranted = 0;
    bool credit_deferred = false;
    obs::SpanContext trace;
    TimePoint last_data;
    Landing landing;
    Bytes prefix;
    bool waiting = false;  // holds a ticket in the shard's waiting room
    bool placing = false;  // a worker holds the instance, placing the region
    TimePoint waiting_since;

    // This stream's share of the connection's committed bytes: the sender
    // may deliver up to its granted credit, but never past the declared end.
    uint64_t committed() const { return std::min(body_len, credit); }
    uint8_t* dest() {
      return landing.placed ? landing.span.data() : prefix.data();
    }
  };

  struct Conn {
    uint64_t id = 0;
    size_t shard = 0;
    int fd = -1;  // borrowed from `write` for reactor (de)registration
    std::shared_ptr<WriteHandle> write;
    TimePoint last_activity;

    // The receive state machine. Fixed-size pieces (the preamble, headers,
    // the open payload) accumulate into `acc`; bodies stream straight into
    // their destinations.
    enum class Phase {
      kPreamble,
      kMuxHeader,
      kMuxOpen,
      kMuxData,
      kMuxSkip,
    };
    Phase phase = Phase::kPreamble;
    uint8_t acc[kMuxMaxOpenPayload];
    size_t fixed_need = kMuxPreambleBytes;
    size_t fixed_got = 0;

    MuxFrameHeader mh;
    size_t frame_left = 0;
    size_t skip_left = 0;
    std::unordered_map<uint32_t, Stream> streams;
    // Streams whose window grant was withheld by the commitment cap, in
    // arrival order; re-granted as invokes drain.
    std::deque<uint32_t> deferred_credit;
  };

  // A waiting-room slot. A slot goes stale when its stream lands or ends
  // out of turn; the serial tells a stale slot from a reused stream id.
  struct Ticket {
    uint64_t conn_id = 0;
    uint32_t stream_id = 0;
    uint64_t serial = 0;
  };
  struct WaitQueue {
    std::shared_ptr<Entry> entry;
    std::deque<Ticket> fifo;  // oldest first
  };

  struct Shard {
    std::shared_ptr<osal::Reactor> reactor;
    // Loop-thread-only: every access happens on this shard's reactor.
    std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns;
    // The waiting room, per function: streams with no instance yet. A
    // retry walks one queue, so its cost is the functions with waiters,
    // not the waiting streams.
    std::unordered_map<const Entry*, WaitQueue> waiting;
    uint64_t next_serial = 0;
  };

  NodeAgent* const agent;
  // Options-resolved admission caps (0 in Options picks the build default).
  const size_t max_conn_streams;
  const size_t max_conn_staged_bytes;
  std::vector<Shard> shards;
  std::atomic<uint64_t> next_conn_id{1};
  std::atomic<size_t> rr_next{0};
  bool shut_down = false;

  // The invoke pool: the only threads that run Wasm.
  std::vector<std::thread> workers;
  Mutex queue_mutex;
  CondVar queue_cv;
  std::deque<InvokeJob> queue RR_GUARDED_BY(queue_mutex);
  bool queue_stopping RR_GUARDED_BY(queue_mutex) = false;

  Nanos SweepTick() const {
    Nanos tick = std::chrono::milliseconds(500);
    if (agent->options_.idle_timeout > Nanos{0}) {
      tick = std::min(tick, agent->options_.idle_timeout / 2);
    }
    if (agent->options_.transfer_deadline > Nanos{0}) {
      tick = std::min(tick, agent->options_.transfer_deadline / 2);
    }
    return std::max<Nanos>(tick, std::chrono::milliseconds(10));
  }

  Status Start() {
    RR_RETURN_IF_ERROR(osal::SetNonBlocking(agent->listener_.fd(), true));
    const size_t hw = osal::UsableCpus();
    size_t nshards = agent->options_.shards;
    if (nshards == 0) nshards = std::min<size_t>(4, std::max<size_t>(1, hw / 4));
    size_t nworkers = agent->options_.invoke_workers;
    if (nworkers == 0) {
      nworkers = std::max<size_t>(2, std::min<size_t>(8, hw / 2));
    }
    shards.resize(nshards);
    for (size_t i = 0; i < nshards; ++i) {
      RR_ASSIGN_OR_RETURN(
          shards[i].reactor,
          osal::Reactor::Start("agent-shard-" + std::to_string(i)));
    }
    RR_RETURN_IF_ERROR(
        shards[0].reactor->Add(agent->listener_.fd(), osal::Epoll::kReadable,
                               [this](uint32_t) { AcceptReady(); }));
    const Nanos tick = SweepTick();
    for (size_t i = 0; i < nshards; ++i) {
      shards[i].reactor->AddTicker(tick, [this, i] { Sweep(i); });
    }
    for (size_t i = 0; i < nworkers; ++i) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
    return Status::Ok();
  }

  void Shutdown() {
    if (shut_down) return;
    shut_down = true;
    for (Shard& shard : shards) {
      if (shard.reactor) shard.reactor->Stop();
    }
    // Loop threads are joined: connection tables are now plane-owned, and
    // this thread may block on exec mutexes to release placed regions.
    std::vector<Landing> orphans;
    size_t closed = 0;
    size_t open_streams = 0;
    for (Shard& shard : shards) {
      for (auto& [id, conn] : shard.conns) {
        {
          MutexLock lock(conn->write->mutex);
          conn->write->dead = true;
          conn->write->fd.Reset();
        }
        open_streams += conn->streams.size();
        for (auto& [stream_id, s] : conn->streams) {
          orphans.push_back(std::move(s.landing));
        }
        ++closed;
      }
      shard.conns.clear();
      shard.waiting.clear();
    }
    if (open_streams > 0) {
      AgentStreamsInFlight().Sub(static_cast<int64_t>(open_streams));
    }
    if (closed > 0) AgentConnections().Sub(static_cast<int64_t>(closed));
    agent->active_connections_.store(0, std::memory_order_relaxed);
    std::deque<InvokeJob> dropped;
    {
      MutexLock lock(queue_mutex);
      queue_stopping = true;
      dropped.swap(queue);
    }
    queue_cv.notify_all();
    size_t dropped_streams = 0;
    for (InvokeJob& job : dropped) {
      if (job.kind == InvokeJob::Kind::kInvoke) ++dropped_streams;
      orphans.push_back(std::move(job.landing));
    }
    if (dropped_streams > 0) {
      AgentStreamsInFlight().Sub(static_cast<int64_t>(dropped_streams));
    }
    for (std::thread& worker : workers) {
      if (worker.joinable()) worker.join();
    }
    workers.clear();
    for (Landing& landing : orphans) ReleaseLanding(landing);
  }

  // --- accept path (shard 0's loop) ---

  void AcceptReady() {  // rr-lint: reactor-thread
    while (true) {
      Result<osal::Connection> accepted = agent->listener_.TryAccept();
      if (!accepted.ok()) {
        if (agent->stopping_.load()) return;
        if (IsTransientAcceptError(accepted.status())) {
          AgentAcceptRetries().Inc();
          RR_LOG(Warning) << "node agent: transient accept error (retrying): "
                          << accepted.status();
        } else {
          RR_LOG(Warning) << "node agent: accept failed: "
                          << accepted.status();
        }
        return;
      }
      if (!accepted->valid()) return;  // drained the backlog
      accepted->SetNoDelay(true);
      auto conn = std::make_shared<Conn>();
      conn->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
      conn->shard = rr_next.fetch_add(1, std::memory_order_relaxed) %
                    shards.size();
      conn->write = std::make_shared<WriteHandle>();
      conn->write->fd = accepted->TakeFd();
      conn->write->reactor = shards[conn->shard].reactor;
      conn->fd = conn->write->fd.get();
      conn->last_activity = Now();
      // Hand off to the owning shard's loop; every later touch of this Conn
      // happens there.
      shards[conn->shard].reactor->Post(
          [this, conn]() mutable { Adopt(std::move(conn)); });
    }
  }

  void Adopt(std::shared_ptr<Conn> conn) {
    const size_t si = conn->shard;
    const uint64_t id = conn->id;
    const Status added = shards[si].reactor->Add(
        conn->fd, osal::Epoll::kReadable,
        [this, si, id](uint32_t events) { OnConnEvent(si, id, events); });
    if (!added.ok()) {
      MutexLock lock(conn->write->mutex);
      conn->write->dead = true;
      conn->write->fd.Reset();
      return;
    }
    shards[si].conns.emplace(id, std::move(conn));
    agent->active_connections_.fetch_add(1, std::memory_order_relaxed);
    AgentConnections().Add(1);
  }

  std::shared_ptr<Conn> FindConn(size_t si, uint64_t id) {
    const auto it = shards[si].conns.find(id);
    return it == shards[si].conns.end() ? nullptr : it->second;
  }

  static Stream* FindStream(Conn& c, uint32_t stream_id) {
    const auto it = c.streams.find(stream_id);
    return it == c.streams.end() ? nullptr : &it->second;
  }

  // --- event path (each shard's loop) ---

  void OnConnEvent(size_t si, uint64_t id, uint32_t events) {  // rr-lint: reactor-thread
    const std::shared_ptr<Conn> conn = FindConn(si, id);
    if (conn == nullptr) return;  // stale event past teardown
    if (events & osal::Epoll::kError) {
      Teardown(si, conn);
      return;
    }
    if (events & osal::Epoll::kWritable) {
      // The peer caught up on its socket buffer: drain the queued control
      // frames (completions, acks, window updates) it had backed up.
      MutexLock lock(conn->write->mutex);
      const bool drained = conn->write->DrainLocked();
      lock.unlock();
      if (!drained) {
        Teardown(si, conn);
        return;
      }
    }
    if ((events & osal::Epoll::kReadable) == 0) return;
    Conn& c = *conn;
    uint8_t buf[64 * 1024];
    // Bounded drain: level-triggered epoll re-arms anything left, so capping
    // the per-event read keeps one firehose connection from starving the
    // shard's other connections.
    for (int round = 0; round < 16; ++round) {
      // Mid-frame, one recvmsg scatters the rest of the body straight into
      // the stream's destination (its guest region, or a waiting stream's
      // prefix) and the next frame header into the accumulator. Everything
      // else reads into `buf` and goes through the parser, which copies the
      // head of a body that arrived in the same read as its header.
      Stream* const s = c.phase == Conn::Phase::kMuxData
                            ? FindStream(c, c.mh.stream_id)
                            : nullptr;
      iovec iov[2];
      msghdr msg{};
      msg.msg_iov = iov;
      size_t want = sizeof(buf);
      if (s != nullptr) {
        iov[0] = {s->dest() + s->got, c.frame_left};
        iov[1] = {c.acc, kMuxFrameHeaderBytes};
        msg.msg_iovlen = 2;
        want = c.frame_left + kMuxFrameHeaderBytes;
      } else {
        iov[0] = {buf, sizeof(buf)};
        msg.msg_iovlen = 1;
      }
      const ssize_t n = ::recvmsg(c.fd, &msg, MSG_DONTWAIT);  // never blocks
      if (n > 0) {
        c.last_activity = Now();
        const size_t got = static_cast<size_t>(n);
        const bool ok = s != nullptr ? Landed(c, *s, got)
                                     : Feed(c, ByteSpan(buf, got));
        if (!ok) {
          Teardown(si, conn);
          return;
        }
        if (got < want) return;
        continue;
      }
      if (n == 0) {  // peer closed
        Teardown(si, conn);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Teardown(si, conn);
      return;
    }
  }

  void ArmFixed(Conn& c, Conn::Phase phase, size_t need) {
    c.phase = phase;
    c.fixed_need = need;
    c.fixed_got = 0;
  }

  // `n` bytes arrived through the scatter read: the rest of the current
  // frame's body went to the stream's destination, and anything past it is
  // the next frame's header, already in the accumulator.
  bool Landed(Conn& c, Stream& s, size_t n) {
    const size_t body = std::min(n, c.frame_left);
    if (!Consume(c, s, body)) return false;  // may end the stream
    const size_t header = n - body;
    if (header == 0) return true;
    c.fixed_got = header;
    return header < kMuxFrameHeaderBytes || ProcessFixed(c);
  }

  // Accounts `n` body bytes already written at the stream's destination.
  bool Consume(Conn& c, Stream& s, size_t n) {
    s.got += n;
    s.ungranted += n;
    s.last_data = Now();
    c.frame_left -= n;
    if (c.frame_left > 0) return true;
    ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
    return Resume(c, c.mh.stream_id, s);
  }

  // Consumes `data` through the state machine. Returns false on anything
  // connection-fatal (the byte stream past the fault cannot be re-framed).
  bool Feed(Conn& c, ByteSpan data) {
    while (!data.empty()) {
      switch (c.phase) {
        case Conn::Phase::kMuxData: {
          Stream* const s = FindStream(c, c.mh.stream_id);
          if (s == nullptr) {
            // Stream swept mid-frame (stalled past the deadline): the rest
            // of the chunk is framing noise, skip it.
            c.skip_left = c.frame_left;
            c.frame_left = 0;
            c.phase = Conn::Phase::kMuxSkip;
            continue;
          }
          const size_t n = std::min<size_t>(data.size(), c.frame_left);
          std::memcpy(s->dest() + s->got, data.data(), n);
          data = data.subspan(n);
          if (!Consume(c, *s, n)) return false;
          continue;
        }
        case Conn::Phase::kMuxSkip: {
          const size_t n = std::min<size_t>(data.size(), c.skip_left);
          c.skip_left -= n;
          data = data.subspan(n);
          if (c.skip_left == 0) {
            ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
          }
          continue;
        }
        default:
          break;
      }
      // Fixed-size accumulation phases.
      const size_t n = std::min<size_t>(data.size(), c.fixed_need - c.fixed_got);
      std::memcpy(c.acc + c.fixed_got, data.data(), n);
      c.fixed_got += n;
      data = data.subspan(n);
      if (c.fixed_got < c.fixed_need) return true;  // wait for more bytes
      if (!ProcessFixed(c)) return false;
    }
    return true;
  }

  bool ProcessFixed(Conn& c) {
    switch (c.phase) {
      case Conn::Phase::kPreamble: {
        // Anything but the mux preamble is connection-fatal: there is no
        // frame to carry a typed refusal on a connection that never spoke
        // the protocol.
        if (LoadLE<uint16_t>(c.acc) != kMuxPreambleMagic) {
          RR_LOG(Warning) << "node agent: connection did not open with the "
                             "mux preamble";
          return false;
        }
        if (c.acc[2] != kMuxVersion) {
          RR_LOG(Warning) << "node agent: unsupported mux version "
                          << static_cast<int>(c.acc[2]);
          return false;
        }
        ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
        return true;
      }
      case Conn::Phase::kMuxHeader: {
        const MuxFrameHeader mh = DecodeMuxFrameHeader(c.acc);
        const Status valid = ValidateMuxFrameHeader(mh, /*receiver_is_agent=*/true);
        if (!valid.ok()) {
          RR_LOG(Warning) << "node agent: " << valid;
          return false;
        }
        c.mh = mh;
        switch (mh.type) {
          case kMuxFrameOpen:
            ArmFixed(c, Conn::Phase::kMuxOpen, mh.payload_length);
            return true;
          case kMuxFrameData: {
            Stream* const s = FindStream(c, mh.stream_id);
            if (s == nullptr) {
              // Unknown stream: tolerated (a chunk racing a cancel/sweep).
              c.skip_left = mh.payload_length;
              c.phase = Conn::Phase::kMuxSkip;
              return true;
            }
            if (s->got + mh.payload_length > s->body_len) {
              RR_LOG(Warning)
                  << "node agent: mux data overruns the declared body";
              return false;
            }
            if (s->got + mh.payload_length > s->credit) {
              // Flow-control violation: the peer sent past its granted
              // window. Tolerating it would let a hostile sender ignore
              // deferred grants and balloon memory anyway, so it is
              // connection-fatal.
              RR_LOG(Warning)
                  << "node agent: mux data exceeds the granted window";
              return false;
            }
            if (!s->landing.placed && s->prefix.empty()) {
              // First bytes of a stream with no region yet. No credit goes
              // past the initial window until it lands, so its committed
              // share bounds the whole prefix.
              s->prefix.resize(static_cast<size_t>(s->committed()));
            }
            c.frame_left = mh.payload_length;
            c.phase = Conn::Phase::kMuxData;
            return true;
          }
          case kMuxFrameCancel: {
            DropStream(c, mh.stream_id);
            ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
            return true;
          }
          default:  // validated above; agent never receives the others
            return false;
        }
      }
      case Conn::Phase::kMuxOpen:
        return ProcessOpen(c);
      default:
        return false;
    }
  }

  bool ProcessOpen(Conn& c) {
    const uint8_t* p = c.acc;
    const size_t len = c.fixed_need;
    if (len < 18) {
      RR_LOG(Warning) << "node agent: truncated mux open frame";
      return false;
    }
    const uint64_t token = LoadLE<uint64_t>(p);
    const uint64_t body_len = LoadLE<uint64_t>(p + 8);
    const uint16_t name_len = LoadLE<uint16_t>(p + 16);
    const bool traced = (c.mh.flags & kMuxFlagTrace) != 0;
    const size_t expect = 18 + name_len + (traced ? 16 : 0);
    if (name_len == 0 || name_len > kMaxFunctionName || len != expect) {
      RR_LOG(Warning) << "node agent: malformed mux open frame";
      return false;
    }
    if (body_len > kMuxMaxBodyBytes) {
      RR_LOG(Warning) << "node agent: implausible mux body length";
      return false;
    }
    if (c.streams.count(c.mh.stream_id) != 0) {
      RR_LOG(Warning) << "node agent: duplicate mux stream id "
                      << c.mh.stream_id;
      return false;
    }
    const std::string_view function(reinterpret_cast<const char*>(p + 18),
                                    name_len);
    obs::SpanContext trace;
    if (traced) {
      trace.trace_id = LoadLE<uint64_t>(p + 18 + name_len);
      trace.span_id = LoadLE<uint64_t>(p + 18 + name_len + 8);
    }
    // The frame is whole: whatever happens to the stream, the wire moves on
    // to the next header (`function` still points into the accumulator,
    // which no byte overwrites before this returns).
    const uint32_t stream_id = c.mh.stream_id;
    ArmFixed(c, Conn::Phase::kMuxHeader, kMuxFrameHeaderBytes);
    std::shared_ptr<Entry> entry = ResolveEntry(function);
    if (entry == nullptr) {
      // An unknown function is stream-fatal, not connection-fatal: the
      // sender gets a typed completion immediately.
      return FailStream(
          c, stream_id,
          NotFoundError("no such function: " + std::string(function)),
          /*refused=*/false);
    }
    // Admission: an open is a commitment to hold body bytes. Refuse — typed,
    // stream-fatal — anything the caps cannot honor, BEFORE any allocation:
    // a handful of ~40-byte open frames must never reserve gigabytes.
    const uint64_t commit =
        std::min<uint64_t>(body_len, kMuxInitialWindow);
    Status refusal = Status::Ok();
    if (c.streams.size() >= max_conn_streams) {
      refusal = ResourceExhaustedError(
          "connection exceeds " + std::to_string(max_conn_streams) +
          " concurrent streams");
    } else if (body_len > max_conn_staged_bytes) {
      // Larger than the whole commitment budget: the stream could never
      // finish — fail it now instead of stalling it to a deadline.
      refusal = ResourceExhaustedError(
          "declared body exceeds the agent's staging capacity");
    } else if (c.write->committed_bytes.load() + commit >
               max_conn_staged_bytes) {
      refusal = ResourceExhaustedError(
          "agent staging capacity exhausted; retry after in-flight "
          "transfers drain");
    }
    if (!refusal.ok()) {
      return FailStream(c, stream_id, refusal, /*refused=*/true);
    }
    Stream s;
    s.token = token;
    s.serial = ++shards[c.shard].next_serial;
    s.entry = std::move(entry);
    s.body_len = body_len;
    s.credit = kMuxInitialWindow;  // what the sender starts with (protocol)
    s.trace = trace;
    s.last_data = Now();
    c.write->committed_bytes.fetch_add(commit);
    AgentStreamsInFlight().Add(1);
    Stream& stream = c.streams.emplace(stream_id, std::move(s)).first->second;
    return Admit(c, stream_id, stream);
  }

  // Stream-fatal typed failure: the sender's edge fails immediately with
  // `status` while the connection — and every other stream on it — lives
  // on. An admitted stream is dropped first; a refusal also counts toward
  // transfers_refused. False when even the completion could not be queued
  // (dead wire).
  bool FailStream(Conn& c, uint32_t stream_id, const Status& status,
                  bool refused) {
    if (refused) {
      // Count BEFORE the refusal leaves: a sender that observed the typed
      // error must also observe the count.
      agent->transfers_refused_.fetch_add(1, std::memory_order_relaxed);
      AgentTransfersRefused().Inc();
    }
    DropStream(c, stream_id);
    AgentCompletionFrames().Inc();
    AgentCompletionErrors().Inc();
    return c.write->SendFrame(EncodeCompletion(stream_id, status));
  }

  static Status NoInstance(const Entry& entry, const std::string& why) {
    return ResourceExhaustedError("no instance available for " +
                                  entry.pool->name() + ": " + why);
  }

  std::shared_ptr<Entry> ResolveEntry(std::string_view name) {
    MutexLock lock(agent->mutex_);
    const auto it = agent->functions_.find(name);
    return it == agent->functions_.end() ? nullptr : it->second;
  }

  // --- instances: lease at open, the waiting room, landing ---

  // Leases the stream's instance at open. Never waits: with the pool empty,
  // or with older waiters for the function on this shard, the stream joins
  // the waiting room.
  bool Admit(Conn& c, uint32_t stream_id, Stream& s) {
    std::atomic<size_t>& waiters = s.entry->waiting[c.shard];
    // The stream counts as a waiter BEFORE it looks at the pool: an invoke
    // worker that returns an instance after the look then sees the count
    // and wakes this shard (the pool's mutex orders the look against the
    // return), so no instance slips past a stream about to wait.
    if (waiters.fetch_add(1) == 0) {
      Result<ShimLease> lease = s.entry->pool->TryLease();
      if (!lease.ok() || *lease) {
        waiters.fetch_sub(1);
        if (!lease.ok()) {
          return FailStream(c, stream_id,
                            NoInstance(*s.entry, lease.status().message()),
                            /*refused=*/true);
        }
        return Land(c, stream_id, s, std::move(*lease));
      }
    }
    s.waiting = true;
    s.waiting_since = Now();
    WaitQueue& queue = shards[c.shard].waiting[s.entry.get()];
    if (queue.entry == nullptr) queue.entry = s.entry;
    queue.fifo.push_back({c.id, stream_id, s.serial});
    s.entry->pool->NoteWait();
    return true;
  }

  void Unwait(size_t si, Stream& s) {
    s.waiting = false;
    s.entry->waiting[si].fetch_sub(1);
  }

  // Gives a stream its region in `lease`'s instance and copies whatever it
  // buffered while it had none. The loop only try_locks exec_mutex — a
  // consumer may hold it for a whole hop out of an older output region — so
  // a contended instance is placed by an invoke worker, which posts the
  // landing back (OnPlaced). False = connection-fatal.
  bool Land(Conn& c, uint32_t stream_id, Stream& s, ShimLease lease) {
    Mutex& exec = lease->exec_mutex();
    if (!exec.try_lock()) {
      s.placing = true;
      InvokeJob job;
      job.kind = InvokeJob::Kind::kPlace;
      job.entry = s.entry;
      job.landing.instance = std::move(lease);
      job.trace = s.trace;
      job.stream_id = stream_id;
      job.serial = s.serial;
      job.shard = c.shard;
      job.conn_id = c.id;
      job.body_len = s.body_len;
      Enqueue(std::move(job));
      return true;
    }
    // The stream's trace context ({0,0} on untraced streams): the agent's
    // spans join the SENDER's trace, which is what stitches a cross-process
    // chain together.
    obs::ScopedTraceContext frame_ctx(s.trace);
    RR_TRACE_SPAN(ingress_span, "agent", "ingress:" + s.entry->pool->name());
    Landing landing;
    landing.instance = std::move(lease);
    const Status placed = Place(landing, s.body_len);
    exec.unlock();
    if (!placed.ok()) {
      ReturnInstance(s.entry, std::move(landing.instance));
      return FailStream(c, stream_id, placed, /*refused=*/false);
    }
    Install(s, std::move(landing));
    if (ingress_span) ingress_span->End();
    return Resume(c, stream_id, s);
  }

  // Switches the stream's destination to its region: the bytes buffered so
  // far are copied in once, and the prefix is freed.
  static void Install(Stream& s, Landing landing) {
    s.landing = std::move(landing);
    s.placing = false;
    if (s.got > 0) std::memcpy(s.landing.span.data(), s.prefix.data(), s.got);
    s.prefix = Bytes();
  }

  // A placed stream moves on: a complete body goes to the invoke pool, an
  // incomplete one may earn credit. A stream without a region waits.
  bool Resume(Conn& c, uint32_t stream_id, Stream& s) {
    if (!s.landing.placed) return true;
    if (s.got == s.body_len) {
      CompleteStream(c, stream_id, s);
      return true;
    }
    return MaybeGrant(c, stream_id, s);
  }

  // A worker placed a contended instance's region for a stream (kPlace).
  void OnPlaced(size_t si, uint64_t conn_id, uint32_t stream_id,
                uint64_t serial, const std::shared_ptr<Entry>& entry,
                Landing landing, const Status& placed) {
    const std::shared_ptr<Conn> conn = FindConn(si, conn_id);
    Stream* const s = conn ? FindStream(*conn, stream_id) : nullptr;
    if (s == nullptr || s->serial != serial) {
      DropLanding(entry, std::move(landing));  // the stream ended meanwhile
      return;
    }
    bool ok = true;
    if (!placed.ok()) {
      s->placing = false;
      DropLanding(entry, std::move(landing));
      ok = FailStream(*conn, stream_id, placed, /*refused=*/false);
    } else {
      Install(*s, std::move(landing));
      ok = Resume(*conn, stream_id, *s);
    }
    if (!ok) Teardown(si, conn);
  }

  // Releases a landing from a loop without blocking: the region goes under a
  // try_lock, or, when a consumer holds the exec mutex, on an invoke worker.
  void DropLanding(const std::shared_ptr<Entry>& entry, Landing landing) {
    if (!landing.instance) return;
    if (landing.placed) {
      Mutex& exec = landing.instance->exec_mutex();
      if (!exec.try_lock()) {
        InvokeJob job;
        job.kind = InvokeJob::Kind::kRelease;
        job.entry = entry;
        job.landing = std::move(landing);
        Enqueue(std::move(job));
        return;
      }
      (void)landing.instance->ReleaseRegion(landing.region);
      exec.unlock();
    }
    ReturnInstance(entry, std::move(landing.instance));
  }

  void ReturnInstance(const std::shared_ptr<Entry>& entry, ShimLease lease) {
    lease.Release();
    InstanceReturned(entry);
  }

  // An instance went back to `entry`'s pool: wake every shard whose waiting
  // room holds streams for the function, so the instance reaches a waiter
  // on any connection without waiting for the sweep tick. (Instances that
  // consumers return from outside the agent wake nobody; the sweep covers
  // those.)
  void InstanceReturned(const std::shared_ptr<Entry>& entry) {
    for (size_t si = 0; si < shards.size(); ++si) {
      if (entry->waiting[si].load() == 0) continue;
      shards[si].reactor->Post([this, si, entry] { ServeWaiters(si, entry); });
    }
  }

  // Lands this shard's oldest waiters for `entry` while the pool hands out
  // instances.
  void ServeWaiters(size_t si, const std::shared_ptr<Entry>& entry) {
    const auto it = shards[si].waiting.find(entry.get());
    if (it == shards[si].waiting.end()) return;
    std::deque<Ticket>& fifo = it->second.fifo;
    while (!fifo.empty()) {
      const Ticket ticket = fifo.front();
      const std::shared_ptr<Conn> conn = FindConn(si, ticket.conn_id);
      Stream* const s = Waiter(conn.get(), ticket);
      if (s == nullptr) {
        fifo.pop_front();
        continue;
      }
      Result<ShimLease> lease = entry->pool->TryLease();
      if (lease.ok() && !*lease) break;  // every instance is out
      fifo.pop_front();
      Unwait(si, *s);
      const bool ok =
          lease.ok()
              ? Land(*conn, ticket.stream_id, *s, std::move(*lease))
              : FailStream(*conn, ticket.stream_id,
                           NoInstance(*entry, lease.status().message()),
                           /*refused=*/true);
      if (!ok) Teardown(si, conn);
    }
    if (fifo.empty()) shards[si].waiting.erase(it);
  }

  // Refuses this shard's waiters for `entry` that waited past the pool's
  // acquire_timeout — the bound a blocking Lease would have given them.
  void ExpireWaiters(size_t si, const std::shared_ptr<Entry>& entry,
                     TimePoint now) {
    const auto it = shards[si].waiting.find(entry.get());
    if (it == shards[si].waiting.end()) return;
    std::deque<Ticket>& fifo = it->second.fifo;
    const Nanos timeout = entry->pool->acquire_timeout();
    while (!fifo.empty()) {
      const Ticket ticket = fifo.front();
      const std::shared_ptr<Conn> conn = FindConn(si, ticket.conn_id);
      Stream* const s = Waiter(conn.get(), ticket);
      if (s != nullptr && now - s->waiting_since <= timeout) break;
      fifo.pop_front();
      if (s == nullptr) continue;
      const Status refusal = NoInstance(
          *entry, "all " + std::to_string(entry->pool->capacity()) +
                      " instances stayed leased past the acquire timeout");
      if (!FailStream(*conn, ticket.stream_id, refusal, /*refused=*/true)) {
        Teardown(si, conn);
      }
    }
    if (fifo.empty()) shards[si].waiting.erase(it);
  }

  // The stream a waiting-room ticket names, or null when the slot is stale.
  static Stream* Waiter(Conn* conn, const Ticket& ticket) {
    Stream* const s =
        conn != nullptr ? FindStream(*conn, ticket.stream_id) : nullptr;
    return s != nullptr && s->serial == ticket.serial && s->waiting ? s
                                                                   : nullptr;
  }

  // --- flow control ---

  // Additional bytes a grant of the stream's ungranted credit would commit
  // the connection to hold (zero once the remaining grants only cover bytes
  // the declared end already bounds — finishing streams always drain).
  static uint64_t GrantDelta(const Stream& s) {
    return std::min(s.body_len, s.credit + s.ungranted) - s.committed();
  }

  // Grants credit once enough of the window was consumed, unless the
  // commitment cap says the peer should back up on the wire for now. Only
  // placed streams get here: a stream without a region earns nothing past
  // its initial window.
  bool MaybeGrant(Conn& c, uint32_t stream_id, Stream& s) {
    if (s.got >= s.body_len || s.credit >= s.body_len) return true;
    if (s.ungranted < kMuxWindowUpdateThreshold) return true;
    if (c.write->committed_bytes.load() + GrantDelta(s) >
        max_conn_staged_bytes) {
      DeferCredit(c, stream_id, s);
      return true;
    }
    if (resilience::FaultInjector::Instance().ShouldFire(
            resilience::FaultSite::kAgentStarveGrant)) {
      // Withhold a DUE window update: the sender stalls on credit until its
      // progress deadline types the edge kDeadlineExceeded.
      return true;
    }
    return GrantNow(c, stream_id, s);
  }

  // Extends the stream's credit to its declared end when the cap holds the
  // rest of the body — the region is already placed, so one window update
  // replaces one per half window — else re-grants the consumed window.
  bool GrantNow(Conn& c, uint32_t stream_id, Stream& s) {
    std::atomic<size_t>& committed = c.write->committed_bytes;
    const uint64_t rest = s.body_len - s.committed();
    uint64_t grant = s.ungranted;
    uint64_t delta = GrantDelta(s);
    if (committed.load() + rest <= max_conn_staged_bytes) {
      grant = s.body_len - s.credit;
      delta = rest;
    }
    committed.fetch_add(delta);
    s.credit += grant;
    s.ungranted = 0;
    s.credit_deferred = false;
    return c.write->SendFrame(
        EncodeWindowUpdate(stream_id, static_cast<uint32_t>(grant)));
  }

  void DeferCredit(Conn& c, uint32_t stream_id, Stream& s) {
    if (!s.credit_deferred) {
      s.credit_deferred = true;
      c.deferred_credit.push_back(stream_id);
    }
    c.write->credit_waiting.store(true);
    // A job that settled between the cap check and the flag saw no waiter
    // and did not post: look again, and flush from the loop if it freed
    // enough.
    if (c.write->committed_bytes.load() + GrantDelta(s) <=
        max_conn_staged_bytes) {
      shards[c.shard].reactor->Post(
          [this, si = c.shard, id = c.id] { OnSettled(si, id); });
    }
  }

  bool FlushDeferredCredit(Conn& c) {
    while (!c.deferred_credit.empty()) {
      const uint32_t stream_id = c.deferred_credit.front();
      Stream* const s = FindStream(c, stream_id);
      if (s == nullptr || !s->credit_deferred) {
        c.deferred_credit.pop_front();  // completed or swept meanwhile
        continue;
      }
      if (c.write->committed_bytes.load() + GrantDelta(*s) >
          max_conn_staged_bytes) {
        return true;  // still full; re-checked as more invokes drain
      }
      c.deferred_credit.pop_front();
      if (!GrantNow(c, stream_id, *s)) return false;
    }
    c.write->credit_waiting.store(false);
    return true;
  }

  // Invoke workers settled some of the connection's committed bytes while a
  // grant waited on them.
  void OnSettled(size_t si, uint64_t id) {
    const std::shared_ptr<Conn> conn = FindConn(si, id);
    if (conn != nullptr && !FlushDeferredCredit(*conn)) Teardown(si, conn);
  }

  // The stream's whole body is in its region: hand it to the invoke pool.
  // The stream leaves the table (its identity lives on in the job), but
  // stays counted in-flight until its completion frame goes out, and its
  // body stays committed until the invoke settles it.
  void CompleteStream(Conn& c, uint32_t stream_id, Stream& s) {
    InvokeJob job;
    job.entry = std::move(s.entry);
    job.landing = std::move(s.landing);
    job.trace = s.trace;
    job.write = c.write;
    job.stream_id = stream_id;
    job.token = s.token;
    job.shard = c.shard;
    job.conn_id = c.id;
    job.body_len = s.body_len;
    c.streams.erase(stream_id);
    c.write->jobs_inflight.fetch_add(1);
    Enqueue(std::move(job));
  }

  void DropStream(Conn& c, uint32_t stream_id) {
    const auto it = c.streams.find(stream_id);
    if (it == c.streams.end()) return;  // tolerated: cancel racing completion
    Stream& s = it->second;
    c.write->committed_bytes.fetch_sub(s.committed());
    AgentStreamsInFlight().Sub(1);
    if (s.waiting) Unwait(c.shard, s);
    const std::shared_ptr<Entry> entry = std::move(s.entry);
    Landing landing = std::move(s.landing);
    c.streams.erase(it);
    DropLanding(entry, std::move(landing));
  }

  void Teardown(size_t si, const std::shared_ptr<Conn>& conn) {
    (void)shards[si].reactor->Remove(conn->fd);
    {
      MutexLock lock(conn->write->mutex);
      conn->write->dead = true;
      conn->write->fd.Reset();
    }
    if (!conn->streams.empty()) {
      AgentStreamsInFlight().Sub(static_cast<int64_t>(conn->streams.size()));
      for (auto& [stream_id, s] : conn->streams) {
        if (s.waiting) Unwait(si, s);
        DropLanding(s.entry, std::move(s.landing));
      }
      conn->streams.clear();
    }
    shards[si].conns.erase(conn->id);
    agent->active_connections_.fetch_sub(1, std::memory_order_relaxed);
    AgentConnections().Sub(1);
  }

  // Periodic per-shard sweep: wedged mid-frame connections, stalled streams,
  // idle connections (the PR 5 "header park stays unbounded" contract is
  // retired — senders reconnect transparently), and the waiting room.
  void Sweep(size_t si) {  // rr-lint: reactor-thread
    const TimePoint now = Now();
    const Nanos deadline = agent->options_.transfer_deadline;
    const Nanos idle = agent->options_.idle_timeout;
    std::vector<std::shared_ptr<Conn>> doomed;
    for (auto& [id, conn] : shards[si].conns) {
      Conn& c = *conn;
      const bool at_frame_boundary =
          (c.phase == Conn::Phase::kPreamble ||
           c.phase == Conn::Phase::kMuxHeader) &&
          c.fixed_got == 0;
      if (deadline > Nanos{0} && !at_frame_boundary &&
          now - c.last_activity > deadline) {
        doomed.push_back(conn);
        continue;
      }
      if (deadline > Nanos{0}) {
        // A stream without a region that used its whole initial window is
        // waiting on the agent, not stalling: the waiting room's own bound
        // (the pool's acquire_timeout) covers it.
        std::vector<uint32_t> stale;
        for (const auto& [stream_id, s] : c.streams) {
          if (s.got < s.body_len && (s.landing.placed || s.got < s.credit) &&
              now - s.last_data > deadline) {
            stale.push_back(stream_id);
          }
        }
        bool wire_dead = false;
        for (const uint32_t stream_id : stale) {
          if (!FailStream(c, stream_id,
                          DeadlineExceededError(
                              "stream stalled past the transfer deadline"),
                          /*refused=*/false)) {
            // The completion could not even be queued (dead wire or a peer
            // buried past the outbound cap): connection-fatal, matching
            // GrantNow and ProcessOpen — anything the peer reads after a
            // dropped frame would be garbage.
            wire_dead = true;
            break;
          }
        }
        if (wire_dead) {
          doomed.push_back(conn);
          continue;
        }
      }
      // A job that just retired is activity too: its connection is not idle
      // the moment the completion frame leaves.
      const bool quiescent = at_frame_boundary && c.streams.empty() &&
                             c.write->jobs_inflight.load() == 0;
      const TimePoint active =
          std::max(c.last_activity, c.write->last_retired.load());
      if (idle > Nanos{0} && quiescent && now - active > idle) {
        doomed.push_back(conn);
      }
    }
    for (const auto& conn : doomed) {
      if (shards[si].conns.count(conn->id) != 0) Teardown(si, conn);
    }
    // The waiting room: land waiters on instances that came back from
    // outside the agent, then refuse the ones past their pool's timeout.
    std::vector<std::shared_ptr<Entry>> waited;
    for (const auto& [key, queue] : shards[si].waiting) {
      waited.push_back(queue.entry);
    }
    for (const std::shared_ptr<Entry>& entry : waited) {
      ServeWaiters(si, entry);
      ExpireWaiters(si, entry, now);
    }
  }

  // --- invoke pool ---

  void Enqueue(InvokeJob job) {
    {
      MutexLock lock(queue_mutex);
      // Only Shutdown sets queue_stopping, after every shard loop (the only
      // callers) has stopped; nothing reaches the dead branch in practice.
      if (queue_stopping) return;
      queue.push_back(std::move(job));
    }
    queue_cv.notify_one();
  }

  void WorkerLoop() {
    while (true) {
      InvokeJob job;
      {
        MutexLock lock(queue_mutex);
        queue_cv.wait(lock, [this]() RR_REQUIRES(queue_mutex) {
          return queue_stopping || !queue.empty();
        });
        if (queue_stopping) return;
        job = std::move(queue.front());
        queue.pop_front();
      }
      switch (job.kind) {
        case InvokeJob::Kind::kInvoke:
          RunJob(std::move(job));
          break;
        case InvokeJob::Kind::kPlace:
          PlaceForStream(std::move(job));
          break;
        case InvokeJob::Kind::kRelease:
          ReleaseLanding(job.landing);
          InstanceReturned(job.entry);
          break;
      }
    }
  }

  // Places a contended instance's region where blocking on its exec_mutex
  // is allowed, then hands the landing back to the stream's shard.
  void PlaceForStream(InvokeJob job) {
    Status placed;
    {
      obs::ScopedTraceContext frame_ctx(job.trace);
      RR_TRACE_SPAN(ingress_span, "agent",
                    "ingress:" + job.entry->pool->name());
      MutexLock lock(job.landing.instance->exec_mutex());
      placed = Place(job.landing, job.body_len);
    }
    auto parcel = std::make_shared<Parcel>();
    parcel->landing = std::move(job.landing);
    shards[job.shard].reactor->Post(
        [this, parcel, entry = job.entry, placed, si = job.shard,
         conn_id = job.conn_id, stream_id = job.stream_id,
         serial = job.serial] {
          OnPlaced(si, conn_id, stream_id, serial, entry,
                   std::move(parcel->landing), placed);
        });
  }

  void RunJob(InvokeJob job) {
    const std::string& function = job.entry->pool->name();
    // Fault-injection hooks (resilience/fault_injector.h): one relaxed
    // atomic load each while disarmed.
    auto& faults = resilience::FaultInjector::Instance();
    if (faults.ShouldFire(resilience::FaultSite::kAgentDelayCompletion)) {
      // Hold the invoke long enough for the sender's backstop to give up;
      // the late delivery then exercises its token-rejection path.
      PreciseSleep(faults.delay(resilience::FaultSite::kAgentDelayCompletion));
    }
    if (faults.ShouldFire(resilience::FaultSite::kAgentDropCompletion)) {
      // A worker that dies right after the receive: the stream is
      // swallowed — no invoke, no completion frame, no delivery — but its
      // region and instance go back and the connection's books settle, so
      // the wire stays healthy and only the sender's backstop notices.
      ReleaseLanding(job.landing);
      InstanceReturned(job.entry);
      Settle(job);
      AgentStreamsInFlight().Sub(1);
      Retire(job, /*sent=*/true);
      return;
    }
    Status result = Status::Ok();
    std::optional<InvokeOutcome> outcome;
    ShimLease instance = std::move(job.landing.instance);
    {
      obs::ScopedTraceContext frame_ctx(job.trace);
      // The exec mutex synchronizes the invoke against readers of regions
      // earlier invocations left resident in this instance.
      MutexLock shim_lock(instance->exec_mutex());
      // A failed invoke leaves the input region allocated; this instance
      // returns to the pool and lives on, so it must not leak.
      RegionGuard guard(instance.get(), job.landing.region);
      RR_TRACE_SPAN(invoke_span, "agent", "invoke:" + function);
      Result<InvokeOutcome> invoked =
          instance->InvokeOnRegion(job.landing.region);
      if (invoke_span) invoke_span->End();
      if (invoked.ok()) {
        guard.Dismiss();
        outcome = std::move(*invoked);
      } else {
        result = invoked.status();
      }
    }
    // The input region is consumed: its bytes leave the commitment cap.
    Settle(job);

    // Deliver, then acknowledge: on success the consumer gets the output
    // before the completion frame is queued, so an in-process consumer
    // finishes its run without waiting on the frame's trip through the
    // sender's reactor. A failure sends the completion frame alone. Either
    // way the frame carries the invocation result to the sender.
    if (outcome.has_value()) {
      // Count BEFORE the output or the completion leaves: whoever observed
      // either must also observe the count (the same contract the refusal
      // counter keeps).
      agent->transfers_completed_.fetch_add(1, std::memory_order_relaxed);
      AgentTransfersCompleted().Inc();
      if (job.entry->on_delivery) {
        job.entry->on_delivery(function, *outcome, job.token,
                               std::move(instance));
      } else {
        // Nobody consumes the output: release it to keep the heap bounded.
        MutexLock shim_lock(instance->exec_mutex());
        (void)instance->ReleaseRegion(outcome->output);
      }
    } else {
      RR_LOG(Debug) << "node agent: transfer failed: " << result;
    }
    // The instance is back in its pool before the completion frame tells
    // the sender, so a sender's next stream finds it there.
    instance.Release();
    InstanceReturned(job.entry);
    AgentCompletionFrames().Inc();
    if (!result.ok()) AgentCompletionErrors().Inc();
    const bool sent =
        job.write->SendFrame(EncodeCompletion(job.stream_id, result));
    AgentStreamsInFlight().Sub(1);
    Retire(job, sent);
  }

  // Returns the job's body to the commitment cap, waking the shard only when
  // a deferred grant waits on it. The flag is read after the bytes are
  // returned, and the shard raises it before its own second look
  // (DeferCredit), so one of the two always sees the other.
  void Settle(const InvokeJob& job) {
    WriteHandle& w = *job.write;
    w.committed_bytes.fetch_sub(job.body_len);
    if (w.credit_waiting.load()) {
      shards[job.shard].reactor->Post(
          [this, si = job.shard, id = job.conn_id] { OnSettled(si, id); });
    }
  }

  // The job is done with its connection. A completion that could not be
  // queued dooms the connection; Post after Stop is a benign no-op
  // (Shutdown reclaims connection state itself).
  void Retire(const InvokeJob& job, bool sent) {
    job.write->last_retired.store(Now());
    job.write->jobs_inflight.fetch_sub(1);
    if (!sent) {
      shards[job.shard].reactor->Post([this, si = job.shard,
                                       id = job.conn_id] {
        const std::shared_ptr<Conn> conn = FindConn(si, id);
        if (conn != nullptr) Teardown(si, conn);
      });
    }
  }
};

NodeAgent::NodeAgent(osal::TcpListener listener, Options options)
    : listener_(std::move(listener)),
      options_(options),
      reactor_plane_(std::make_unique<ReactorPlane>(this)) {}

Result<std::unique_ptr<NodeAgent>> NodeAgent::Start(uint16_t port) {
  return Start(port, Options());
}

Result<std::unique_ptr<NodeAgent>> NodeAgent::Start(uint16_t port,
                                                    Options options) {
  RR_ASSIGN_OR_RETURN(osal::TcpListener listener, osal::TcpListener::Bind(port));
  auto agent = std::unique_ptr<NodeAgent>(
      new NodeAgent(std::move(listener), options));
  const Status started = agent->reactor_plane_->Start();
  if (!started.ok()) {
    agent->Shutdown();
    return started;
  }
  return agent;
}

NodeAgent::~NodeAgent() { Shutdown(); }

void NodeAgent::Shutdown() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listener_.fd(), SHUT_RDWR);
  reactor_plane_->Shutdown();
}

Status NodeAgent::RegisterFunction(std::shared_ptr<ShimPool> pool,
                                   DeliveryCallback on_delivery) {
  if (pool == nullptr) return InvalidArgumentError("null pool");
  const std::string name = pool->name();
  auto entry = std::make_shared<Entry>();
  entry->pool = std::move(pool);
  entry->on_delivery = std::move(on_delivery);
  entry->waiting =
      std::vector<std::atomic<size_t>>(reactor_plane_->shards.size());
  MutexLock lock(mutex_);
  if (!functions_.emplace(name, std::move(entry)).second) {
    return AlreadyExistsError("function already registered: " + name);
  }
  return Status::Ok();
}

Status NodeAgent::RegisterFunction(Shim* shim, DeliveryCallback on_delivery) {
  if (shim == nullptr) return InvalidArgumentError("null shim");
  RR_ASSIGN_OR_RETURN(std::shared_ptr<ShimPool> pool, ShimPool::Adopt(shim));
  return RegisterFunction(std::move(pool), std::move(on_delivery));
}

Status NodeAgent::UnregisterFunction(const std::string& name) {
  MutexLock lock(mutex_);
  if (functions_.erase(name) == 0) {
    return NotFoundError("function not registered: " + name);
  }
  return Status::Ok();
}

}  // namespace rr::core
