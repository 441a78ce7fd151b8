#include "rpc/rpc_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <system_error>
#include <thread>

#include "common/secret.hpp"
#include "common/sha256.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "rpc/fault_injector.hpp"

namespace bnr::rpc {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblock(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

/// SIGPIPE hardening, once per process: every socket send in this subsystem
/// already passes MSG_NOSIGNAL, but a peer reset racing a write on a future
/// code path (or a third-party fd inherited into the daemon) must never be
/// able to kill the process — writes see EPIPE and the owning loop closes
/// the connection like any other hard error.
void ignore_sigpipe_once() {
  static const int once = [] {
    struct sigaction sa {};
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
    return 0;
  }();
  (void)once;
}

std::string hex_digest(std::span<const uint8_t> data) {
  Sha256 hs;
  hs.update(data);
  return to_hex(hs.finalize());
}

/// Constant-time shared-secret comparison: both sides are hashed (so even
/// the length comparison inside ct_equal leaks nothing — digests are fixed
/// width) and the digests compared without early exit.
bool constant_time_token_equal(std::string_view a, std::string_view b) {
  Sha256 ha, hb;
  ha.update(a);
  hb.update(b);
  auto da = ha.finalize();
  auto db = hb.finalize();
  return ct_equal(std::span<const uint8_t>(da), std::span<const uint8_t>(db));
}

/// Response frames gathered per writev call. IOV_MAX is 1024 on Linux; 64
/// already amortizes the syscall while keeping the stack array small.
constexpr size_t kMaxWriteIov = 64;

}  // namespace

/// Per-connection state. Owned by exactly one loop through IoLoop::conns;
/// completion-queue entries hold weak_ptrs only, so a disconnect drops its
/// pending responses without any cross-thread coordination.
struct RpcServer::Conn {
  Conn(int fd_, uint32_t max_frame, IoLoop* loop_)
      : fd(fd_), loop(loop_), frames(max_frame) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  /// One encoded response awaiting write. The trace (null unless obs was on
  /// when the request arrived) is stamped kFlushed when the LAST byte of
  /// this frame drains, which is the only latency a client can observe.
  struct OutFrame {
    Bytes bytes;
    std::shared_ptr<obs::RequestTrace> trace;
  };

  int fd;
  IoLoop* loop;  // fixed at accept: a conn never migrates between loops
  FrameBuffer frames;
  std::deque<OutFrame> wq;  // encoded frames awaiting write
  size_t wq_bytes = 0;
  size_t woff = 0;        // progress into wq.front()
  uint32_t events = 0;    // currently registered epoll interest mask
  bool read_shut = false; // shutdown drain: no further reads
  bool paused = false;    // backpressured: wq over high-water mark

  // Token bucket (owning loop thread only): starts full so a burst up to
  // conn_rate_burst is admitted before the rate bites.
  double tokens = 0;
  std::chrono::steady_clock::time_point last_refill{};
};

/// One IO loop: its own SO_REUSEPORT listener, epoll set, eventfd wake,
/// connection table, completion queue, and counter slice. Everything except
/// the completion queue and the counters is touched only by the loop's own
/// thread; the counters are relaxed atomics summed at snapshot time.
struct RpcServer::IoLoop {
  size_t index = 0;
  int listen_fd = -1;
  int epoll_fd = -1;
  int event_fd = -1;
  int reserve_fd = -1;  // burned to accept-and-close when out of fds

  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // loop thread only

  struct Completion {
    std::weak_ptr<Conn> conn;
    Bytes payload;
    std::shared_ptr<obs::RequestTrace> trace;
  };
  std::mutex comp_m;
  std::vector<Completion> completions;

  // Per-loop counter slice: the loop thread (and, for nothing in this
  // struct, pool workers) writes relaxed; STATS/HEALTH sums across loops.
  std::atomic<uint64_t> accepts{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> busy_inflight{0};   // BUSY: global in-flight cap
  std::atomic<uint64_t> busy_ratelimit{0};  // BUSY: token bucket empty
  std::atomic<uint64_t> shed_arrival{0};    // SHED: budget 0 at decode time

  ~IoLoop() {
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (event_fd >= 0) ::close(event_fd);
    if (reserve_fd >= 0) ::close(reserve_fd);
  }
};

RpcServer::RpcServer(ServerConfig cfg, service::ThreadPool& pool)
    : cfg_(std::move(cfg)),
      pool_(pool),
      params_(threshold::SystemParams::derive(cfg_.params_label)),
      registry_(params_),
      verifier_cache_(service::KeyCachePolicy{.byte_budget = cfg_.cache_bytes,
                                              .shards = cfg_.cache_shards}),
      combiner_cache_(service::KeyCachePolicy{.byte_budget = cfg_.cache_bytes,
                                              .shards = cfg_.cache_shards}) {
  ignore_sigpipe_once();
  // Providers run on pool workers (outside any shard lock). They receive
  // the CANONICAL cache key — the "<scheme>:<pk digest>" the tenant was
  // aliased onto — and read the digest-keyed registry maps, which are
  // immutable per digest. Keying the prepare by the digest (not the mutable
  // tenant record) is what makes a re-registration racing an in-flight
  // batch harmless: the worst case is preparing a verifier nobody looks up
  // again, never caching one under a digest it does not match. An
  // unregistered tenant's key resolves to itself, misses these maps, and
  // rejects the group.
  verify_ = std::make_unique<service::MultiTenantVerificationService>(
      verifier_cache_,
      [this](const std::string& canonical) {
        PkEntry entry;
        {
          std::lock_guard<std::mutex> l(reg_m_);
          auto it = pk_by_digest_.find(canonical);
          if (it == pk_by_digest_.end())
            throw RpcError("unknown tenant key: " + canonical);
          entry = it->second;
        }
        return std::shared_ptr<const threshold::PreparedVerifier>(
            registry_.at(entry.scheme).make_verifier(entry.pk));
      },
      cfg_.batch, pool_, "rpc-verify");
  combine_ = std::make_unique<service::MultiTenantCombineService>(
      combiner_cache_,
      [this](const std::string& canonical) {
        CommitteeEntry entry;
        {
          std::lock_guard<std::mutex> l(reg_m_);
          auto it = committee_by_digest_.find(canonical);
          if (it == committee_by_digest_.end())
            throw RpcError("not a combine-capable committee: " + canonical);
          entry = it->second;
        }
        return std::shared_ptr<const threshold::PreparedCombiner>(
            registry_.at(entry.scheme).make_combiner(*entry.committee));
      },
      pool_, "rpc-combine");

  // One listener per loop, every one bound to the SAME port with
  // SO_REUSEPORT: the kernel hashes incoming connections across them, so
  // accept parallelism needs no shared listener and no lock. Loop 0 binds
  // first (possibly ephemeral) and fixes the port for the rest.
  size_t n_loops = cfg_.io_threads;
  if (n_loops == 0) {
    size_t hw = std::thread::hardware_concurrency();
    n_loops = std::min<size_t>(4, std::max<size_t>(1, hw / 2));
  }
  request_hist_ = std::make_unique<obs::ShardedHistogram>(n_loops);
  loops_.reserve(n_loops);
  for (size_t i = 0; i < n_loops; ++i) {
    auto L = std::make_unique<IoLoop>();
    L->index = i;
    L->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (L->listen_fd < 0) throw_errno("socket");
    int one = 1;
    ::setsockopt(L->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::setsockopt(L->listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) < 0)
      throw_errno("setsockopt(SO_REUSEPORT)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(i == 0 ? cfg_.port : port_);
    if (::inet_pton(AF_INET, cfg_.bind_addr.c_str(), &addr.sin_addr) != 1)
      throw std::invalid_argument("RpcServer: bad bind address " +
                                  cfg_.bind_addr);
    if (::bind(L->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0)
      throw_errno("bind");
    if (::listen(L->listen_fd, 128) < 0) throw_errno("listen");
    if (i == 0) {
      socklen_t alen = sizeof(addr);
      if (::getsockname(L->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                        &alen) < 0)
        throw_errno("getsockname");
      port_ = ntohs(addr.sin_port);
    }
    set_nonblock(L->listen_fd);

    L->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (L->epoll_fd < 0) throw_errno("epoll_create1");
    L->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (L->event_fd < 0) throw_errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = L->event_fd;
    if (::epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, L->event_fd, &ev) < 0)
      throw_errno("epoll_ctl(eventfd)");
    ev.data.fd = L->listen_fd;
    if (::epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, L->listen_fd, &ev) < 0)
      throw_errno("epoll_ctl(listener)");
    L->reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    loops_.push_back(std::move(L));
  }
}

RpcServer::~RpcServer() {
  stop_.store(true, std::memory_order_release);
  // Dispatched pool tasks hold raw references to the services; wait for
  // them to land first (the pool keeps running — it outlives the server).
  {
    std::unique_lock<std::mutex> l(tasks_m_);
    tasks_cv_.wait(l, [&] { return tasks_inflight_ == 0; });
  }
  // Services next (they drain every pool task, whose completions land
  // harmlessly in the per-loop queues against dead weak pointers), then the
  // loops close their sockets (member order: loops_ declared first).
  verify_.reset();
  combine_.reset();
  loops_.clear();
}

void RpcServer::stop() {
  stop_.store(true, std::memory_order_release);
  // loops_ is sized once in the constructor and never resized: traversing
  // it here is a read-only walk over pre-built state, and an eventfd write
  // is async-signal-safe.
  for (auto& L : loops_) wake(*L);
}

void RpcServer::wake(IoLoop& L) {
  uint64_t one = 1;
  // A saturated eventfd counter already guarantees a pending wake-up;
  // EAGAIN is success.
  [[maybe_unused]] ssize_t n = ::write(L.event_fd, &one, sizeof(one));
}

void RpcServer::run() {
  auto drive = [this](IoLoop& L) {
    try {
      event_loop(L);
    } catch (...) {
      stop();  // one loop dying takes the rest down through the drain path
      throw;
    }
  };
  // std::async futures join in their destructors, so a throw from loop 0
  // still waits for the others; get() rethrows an extra loop's exception.
  std::vector<std::future<void>> extra;
  extra.reserve(loops_.size() - 1);
  for (size_t i = 1; i < loops_.size(); ++i)
    extra.push_back(
        std::async(std::launch::async, drive, std::ref(*loops_[i])));
  drive(*loops_[0]);
  for (auto& f : extra) f.get();
}

void RpcServer::event_loop(IoLoop& L) {
  using clock = std::chrono::steady_clock;
  bool draining = false;
  clock::time_point drain_deadline{};
  std::array<epoll_event, 128> evs;

  for (;;) {
    if (stop_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline = clock::now() + cfg_.drain_timeout;
      if (L.listen_fd >= 0) {
        ::close(L.listen_fd);  // close also removes it from the epoll set
        L.listen_fd = -1;
      }
      // Push pending service batches out now instead of waiting for their
      // deadline flush (once, whichever loop gets here first), and stop
      // reading: frames already buffered were parsed as they arrived, so
      // every accepted request is in flight.
      if (!drain_flushed_.exchange(true)) verify_->flush();
      for (auto& [fd, c] : L.conns) {
        c->read_shut = true;
        update_interest(L, *c);
      }
    }
    if (draining) {
      bool wq_empty = true;
      for (auto& [fd, c] : L.conns) wq_empty = wq_empty && c->wq.empty();
      // A loop with live connections must wait for the GLOBAL in-flight
      // count: any of those requests will complete into ITS queue. A loop
      // whose connections are all gone has nothing left to deliver.
      bool idle = L.conns.empty() ||
                  in_flight_.load(std::memory_order_acquire) == 0;
      if (idle) {
        std::lock_guard<std::mutex> l(L.comp_m);
        idle = L.completions.empty();
      }
      if ((idle && wq_empty) || clock::now() > drain_deadline) break;
    }

    int timeout_ms = draining ? 50 : -1;
    int n = ::epoll_wait(L.epoll_fd, evs.data(), int(evs.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }

    // Connection I/O first, the listener LAST: a connection closed in this
    // batch may free an fd number the accept path immediately reuses, and
    // processing accepts after every stale event is dispatched means a
    // recycled fd can never route an old connection's readiness to a new
    // one.
    bool accept_pending = false;
    for (int i = 0; i < n; ++i) {
      int fd = evs[i].data.fd;
      if (fd == L.event_fd) {
        uint64_t v;
        while (::read(L.event_fd, &v, sizeof(v)) < 0 && errno == EINTR) {
        }
        continue;
      }
      if (fd == L.listen_fd) {
        accept_pending = true;
        continue;
      }
      auto it = L.conns.find(fd);
      if (it == L.conns.end()) continue;  // closed earlier this batch
      auto c = it->second;                // keep alive across handlers
      if (evs[i].events & EPOLLOUT) write_ready(L, c);
      if (c->fd >= 0 && (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)))
        read_ready(L, c);
      if (c->fd >= 0) update_interest(L, *c);
    }
    if (accept_pending && L.listen_fd >= 0) accept_ready(L);
    drain_completions(L);
  }

  total_conns_.fetch_sub(L.conns.size(), std::memory_order_relaxed);
  L.conns.clear();
}

void RpcServer::accept_ready(IoLoop& L) {
  for (;;) {
    int fd = ::accept(L.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds with a connection still queued: under level-triggered
        // epoll the listener would signal forever and busy-spin the loop.
        // Burn the loop's reserve fd to accept-and-close the connection
        // (the peer sees a clean refusal), then re-arm the reserve.
        if (L.reserve_fd >= 0) {
          ::close(L.reserve_fd);
          L.reserve_fd = -1;
          int victim = ::accept(L.listen_fd, nullptr, nullptr);
          if (victim >= 0) ::close(victim);
          L.reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          continue;
        }
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // other transient accept failures (ECONNABORTED) are skipped
    }
    // Connection cap (GLOBAL across loops): overflow is accepted-and-closed
    // so the pending queue cannot re-signal the level-triggered listener
    // forever, and the peer sees a clean close instead of a SYN backlog
    // timeout. The slot is RESERVED with one compare-exchange — a plain
    // check-then-fetch_add would let two loops racing on the last slot both
    // pass the check and transiently over-admit past the cap.
    if (!reserve_conn_slot()) {
      ::close(fd);
      L.rejected.fetch_add(1, std::memory_order_relaxed);
      BNR_LOG(obs::LogLevel::kWarn, "rpc", "conn_cap_reject",
              obs::kv("cap", uint64_t(cfg_.max_connections)));
      continue;
    }
    // Injected accept failure: the peer sees an immediate close, exactly the
    // shape of an accept() racing a dying listener.
    if (auto* f = FaultInjector::active(); f && f->on_accept()) {
      ::close(fd);
      total_conns_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    set_nonblock(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_shared<Conn>(fd, cfg_.max_frame, &L);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(L.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      c->fd = -1;
      total_conns_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    c->events = EPOLLIN;
    L.conns.emplace(fd, std::move(c));
    L.accepts.fetch_add(1, std::memory_order_relaxed);
  }
}

bool RpcServer::reserve_conn_slot() {
  size_t cur = total_conns_.load(std::memory_order_relaxed);
  for (;;) {
    if (cfg_.max_connections > 0 && cur >= cfg_.max_connections) return false;
    if (total_conns_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
      return true;
    // cur was reloaded by the failed CAS; re-check against the cap.
  }
}

void RpcServer::close_conn(IoLoop& L, const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  int fd = c->fd;
  ::close(fd);  // also removes the fd from the epoll set
  c->fd = -1;
  L.conns.erase(fd);
  total_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void RpcServer::update_interest(IoLoop& L, Conn& c) {
  if (c.fd < 0) return;
  // Backpressure with hysteresis: a connection that is not draining its
  // responses loses its read interest at the high-water mark and only
  // regains it below half, so a queue hovering at the threshold cannot
  // flap read interest on every event.
  if (c.paused && c.wq_bytes < cfg_.write_backpressure / 2)
    c.paused = false;
  else if (!c.paused && c.wq_bytes >= cfg_.write_backpressure)
    c.paused = true;
  uint32_t want = 0;
  if (!c.read_shut && !c.paused) want |= EPOLLIN;
  if (!c.wq.empty()) want |= EPOLLOUT;
  if (want == c.events) return;
  epoll_event ev{};
  ev.events = want;  // 0 still reports EPOLLHUP/EPOLLERR: errors stay visible
  ev.data.fd = c.fd;
  ::epoll_ctl(L.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  c.events = want;
}

void RpcServer::read_ready(IoLoop& L, const std::shared_ptr<Conn>& c) {
  uint8_t buf[65536];
  for (;;) {
    size_t want = sizeof(buf);
    if (auto* f = FaultInjector::active()) {
      // A clamped `want` models a short read (1 byte arrives); the other
      // fault shapes map onto the exact paths a real kernel would take.
      auto fault = f->on_io(FaultInjector::kServerRead, want);
      if (fault == FaultInjector::IoFault::kEagain) break;
      if (fault == FaultInjector::IoFault::kReset) {
        close_conn(L, c);
        return;
      }
    }
    ssize_t n = ::recv(c->fd, buf, want, 0);
    if (n > 0) {
      c->frames.feed({buf, size_t(n)});
      // A peer streaming faster than we parse must not stage unbounded
      // memory: cap the unparsed buffer at one max frame plus one read and
      // go parse; epoll is level-triggered, the rest re-signals.
      if (c->frames.buffered() > size_t(cfg_.max_frame) + sizeof(buf)) break;
      if (size_t(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: a mid-request disconnect. In-flight completions
    // hold weak_ptrs and get dropped; the batches they folded into are
    // unaffected.
    close_conn(L, c);
    return;
  }

  Bytes frame;
  for (;;) {
    auto r = c->frames.next(frame);
    if (r == FrameBuffer::Result::kNeedMore) return;
    if (r == FrameBuffer::Result::kTooBig || !handle_frame(L, c, frame)) {
      L.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      // This close used to be silent: the peer sees the disconnect but the
      // operator had only a bare counter. One rate-limited line attributes
      // the teardown.
      BNR_LOG(obs::LogLevel::kWarn, "rpc", "protocol_error_close",
              obs::kv("fd", int64_t(c->fd)) +
                  obs::kv("oversized", r == FrameBuffer::Result::kTooBig));
      close_conn(L, c);
      return;
    }
  }
}

void RpcServer::write_ready(IoLoop& L, const std::shared_ptr<Conn>& c) {
  while (!c->wq.empty()) {
    // Gather every queued frame (up to kMaxWriteIov) into ONE writev: the
    // old per-frame send loop paid a syscall per response, which at batch
    // depth is exactly the overhead a batching daemon exists to avoid.
    iovec iov[kMaxWriteIov];
    size_t niov = 0, total = 0;
    size_t off = c->woff;
    for (auto it = c->wq.begin(); it != c->wq.end() && niov < kMaxWriteIov;
         ++it) {
      iov[niov].iov_base = const_cast<uint8_t*>(it->bytes.data() + off);
      iov[niov].iov_len = it->bytes.size() - off;
      total += iov[niov].iov_len;
      ++niov;
      off = 0;
    }
    size_t len = total;
    if (auto* f = FaultInjector::active()) {
      auto fault = f->on_io(FaultInjector::kServerWrite, len);
      if (fault == FaultInjector::IoFault::kEagain) return;
      if (fault == FaultInjector::IoFault::kReset) {
        close_conn(L, c);
        return;
      }
      if (len < total) {
        // Injected short write: clamp the gather list to `len` bytes so the
        // kernel cannot move more than the schedule allows.
        size_t budget = len;
        size_t k = 0;
        for (; k < niov && budget > 0; ++k) {
          if (iov[k].iov_len > budget) iov[k].iov_len = budget;
          budget -= iov[k].iov_len;
        }
        niov = std::max<size_t>(k, 1);
        total = len;
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    ssize_t n = ::sendmsg(c->fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(L, c);
      return;
    }
    // Consume n bytes across the queued frames. A fully drained frame is
    // the response's observable completion: stamp its trace and fold it
    // into the slow-trace ring before the frame is dropped.
    size_t left = size_t(n);
    while (left > 0) {
      Conn::OutFrame& front = c->wq.front();
      size_t avail = front.bytes.size() - c->woff;
      if (left >= avail) {
        left -= avail;
        c->wq_bytes -= front.bytes.size();
        if (front.trace) on_frame_flushed(L, *front.trace);
        c->wq.pop_front();
        c->woff = 0;
      } else {
        c->woff += left;
        left = 0;
      }
    }
    if (size_t(n) < total) return;  // kernel buffer full: wait for EPOLLOUT
  }
}

void RpcServer::send_now(const std::shared_ptr<Conn>& c, Bytes payload,
                         std::shared_ptr<obs::RequestTrace> trace) {
  if (c->fd < 0) return;
  IoLoop& L = *c->loop;
  Bytes framed;
  framed.reserve(4 + payload.size());
  append_frame(framed, payload, cfg_.max_frame);
  c->wq_bytes += framed.size();
  c->wq.push_back(Conn::OutFrame{std::move(framed), std::move(trace)});
  write_ready(L, c);  // opportunistic flush; the rest goes out via EPOLLOUT
  if (c->fd >= 0) update_interest(L, *c);
}

void RpcServer::on_frame_flushed(IoLoop& L, obs::RequestTrace& trace) {
  trace.stamp(obs::Stage::kFlushed);
  obs::TraceRecord rec = obs::TraceRecord::from(trace);
  request_hist_->record(L.index, rec.total_ns);
  trace_ring_.offer(rec);
}

void RpcServer::complete(const std::weak_ptr<Conn>& wc, Bytes payload,
                         std::shared_ptr<obs::RequestTrace> trace) {
  if (auto c = wc.lock()) {
    IoLoop& L = *c->loop;
    {
      std::lock_guard<std::mutex> l(L.comp_m);
      L.completions.push_back(
          IoLoop::Completion{wc, std::move(payload), std::move(trace)});
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
    wake(L);
  } else {
    // The connection died: its response is dropped on the floor, but the
    // request still leaves the in-flight window.
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

void RpcServer::drain_completions(IoLoop& L) {
  std::vector<IoLoop::Completion> batch;
  {
    std::lock_guard<std::mutex> l(L.comp_m);
    batch.swap(L.completions);
  }
  for (auto& comp : batch)
    if (auto c = comp.conn.lock())
      send_now(c, std::move(comp.payload), std::move(comp.trace));
}

// Token-bucket + in-flight-cap admission for one data-plane request.
// Rejections are BUSY — attributable and retryable, never a teardown: under
// overload the one thing the daemon must NOT do is make clients guess
// whether their request died, was dropped, or is still queued.
bool RpcServer::admit(IoLoop& L, const std::shared_ptr<Conn>& c, uint64_t id,
                      double cost) {
  if (cfg_.conn_rate_limit > 0) {
    auto now = std::chrono::steady_clock::now();
    double burst = cfg_.conn_rate_burst > 0 ? cfg_.conn_rate_burst
                                            : cfg_.conn_rate_limit;
    if (c->last_refill.time_since_epoch().count() == 0) {
      c->tokens = burst;  // first request: bucket starts full
    } else {
      double dt = std::chrono::duration<double>(now - c->last_refill).count();
      c->tokens = std::min(burst, c->tokens + dt * cfg_.conn_rate_limit);
    }
    c->last_refill = now;
    if (c->tokens < cost) {
      L.busy_ratelimit.fetch_add(1, std::memory_order_relaxed);
      BNR_LOG(obs::LogLevel::kInfo, "rpc", "busy_ratelimit",
              obs::kv("request_id", id) + obs::kv("cost", cost));
      send_now(c, encode_rejection(id, Status::kBusy,
                                   "rate limited: connection over its "
                                   "request budget"));
      return false;
    }
    c->tokens -= cost;
  }
  if (cfg_.max_in_flight > 0 &&
      in_flight_.load(std::memory_order_acquire) >= cfg_.max_in_flight) {
    L.busy_inflight.fetch_add(1, std::memory_order_relaxed);
    BNR_LOG(obs::LogLevel::kInfo, "rpc", "busy_inflight",
            obs::kv("request_id", id) +
                obs::kv("cap", uint64_t(cfg_.max_in_flight)));
    send_now(c, encode_rejection(id, Status::kBusy,
                                 "server at in-flight capacity"));
    return false;
  }
  return true;
}

const threshold::Scheme* RpcServer::tenant_scheme(const std::string& key,
                                                  bool combine) const {
  std::lock_guard<std::mutex> l(reg_m_);
  auto it = tenants_.find(key);
  if (it == tenants_.end() || (combine && !it->second.combine_capable))
    return nullptr;
  return &registry_.at(it->second.scheme);
}

void RpcServer::dispatch(IoLoop& L, const std::shared_ptr<Conn>& c,
                         uint64_t id, const Route& route,
                         std::shared_ptr<obs::RequestTrace> trace, Work work) {
  const threshold::Scheme* scheme = nullptr;
  if (route.tenant) {
    if (!admit(L, c, id, route.cost)) return;
    if (trace) trace->stamp(obs::Stage::kAdmitted);
    scheme = tenant_scheme(*route.tenant, route.combine);
    if (!scheme) {
      send_now(c, encode_error(id, (route.combine
                                        ? "not a combine-capable tenant: "
                                        : "unknown tenant: ") +
                                       *route.tenant));
      return;
    }
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> l(tasks_m_);
    ++tasks_inflight_;
  }
  pool_.submit([this, r = Reply{this, c, id, scheme, std::move(trace)},
                work = std::move(work)] {
    try {
      work(r);
    } catch (...) {
      // A blob that does not parse inside a well-formed frame (or a key
      // REGISTER refuses) is the REQUEST's fault: attributable, not a close.
      r.fail(std::current_exception());
    }
    std::lock_guard<std::mutex> l(tasks_m_);
    if (--tasks_inflight_ == 0) tasks_cv_.notify_all();
  });
}

void RpcServer::Reply::ok(std::span<const uint8_t> body) const {
  server->complete(conn, encode_ok(id, body), trace);
}

void RpcServer::Reply::fail(std::exception_ptr err) const {
  Bytes resp;
  try {
    std::rethrow_exception(err);
  } catch (const service::DeadlineShed& e) {
    // The service dropped it before paying a pairing: SHED on the wire, so
    // the client knows a retry of the same budget is pointless.
    resp = encode_rejection(id, Status::kShed, e.what());
  } catch (const std::exception& e) {
    resp = encode_error(id, e.what());
  } catch (...) {
    resp = encode_error(id, "request failed");
  }
  server->complete(conn, std::move(resp), trace);
}

bool RpcServer::handle_frame(IoLoop& L, const std::shared_ptr<Conn>& c,
                             std::span<const uint8_t> payload) {
  if (auto* f = FaultInjector::active()) f->on_frame();
  try {
    ByteReader rd(payload);
    RequestHeader h = decode_request_header(rd);
    const uint64_t id = h.request_id;
    // A request that arrives with its deadline budget already spent is shed
    // HERE — before admission control, before any decode of the body's
    // crypto blobs: no cycle of work for a response nobody is waiting for.
    auto deadline = std::chrono::steady_clock::time_point::max();
    if (h.budget_ms) {
      if (*h.budget_ms == 0 && h.method != Method::kPing &&
          h.method != Method::kStats && h.method != Method::kHealth &&
          h.method != Method::kMetrics) {
        L.shed_arrival.fetch_add(1, std::memory_order_relaxed);
        L.frames_in.fetch_add(1, std::memory_order_relaxed);
        BNR_LOG(obs::LogLevel::kInfo, "rpc", "shed_arrival",
                obs::kv("request_id", id) +
                    obs::kv("method", uint64_t(h.method)));
        send_now(c, encode_rejection(id, Status::kShed,
                                     "deadline budget spent on arrival"));
        return true;
      }
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(*h.budget_ms);
    }
    // Data-plane requests get a stage trace while obs is on: kReceived
    // stamps at construction (here, on the IO loop), the rest as the
    // request moves through admission, pool decode, the service, and the
    // response flush. Control-plane methods are never traced.
    std::shared_ptr<obs::RequestTrace> trace;
    bool data_plane = h.method == Method::kVerify ||
                      h.method == Method::kBatchVerify ||
                      h.method == Method::kCombine;
    if (data_plane && obs::enabled())
      trace = std::make_shared<obs::RequestTrace>(id, uint8_t(h.method));
    // REGISTER and the data-plane methods split their body here (cheap, and
    // a malformed frame must close the connection synchronously); the work
    // each hands to dispatch() runs on the pool: parse the blobs, submit,
    // encode the OK body.
    switch (h.method) {
      case Method::kPing:
        expect_frame_done(rd, "PING");
        send_now(c, encode_ok(id));
        break;
      case Method::kStats: {
        expect_frame_done(rd, "STATS");
        send_now(c, encode_ok(id, encode_stats(snapshot_stats())));
        break;
      }
      case Method::kHealth: {
        expect_frame_done(rd, "HEALTH");
        send_now(c, encode_ok(id, encode_health(snapshot_health())));
        break;
      }
      case Method::kMetrics: {
        uint8_t flags = rd.u8();
        expect_frame_done(rd, "METRICS");
        if (flags & ~(kMetricsText | kMetricsTraces))
          throw ProtocolError("METRICS: undefined flag bits");
        obs::MetricsSnapshot m = metrics_snapshot(flags & kMetricsTraces);
        Bytes body;
        if (flags & kMetricsText) {
          ByteWriter w;
          w.str(render_prometheus(m));
          body = w.take();
        } else {
          body = encode_metrics_snapshot(m);
        }
        send_now(c, encode_ok(id, body));
        break;
      }
      case Method::kRegisterTenant: {
        auto req =
            std::make_shared<RegisterTenantRequest>(decode_register(rd));
        // ADMIN auth on the loop (a hash, not crypto). A wrong token is
        // attributable (ERROR response, counted), never a protocol
        // violation — closing would tell a prober nothing it cannot
        // already see.
        if (!cfg_.admin_token.empty() &&
            !constant_time_token_equal(req->token, cfg_.admin_token)) {
          auth_failures_.fetch_add(1, std::memory_order_relaxed);
          BNR_LOG(obs::LogLevel::kWarn, "rpc", "auth_failure",
                  obs::kv("request_id", id) + obs::kv("tenant", req->key));
          send_now(c, encode_error(id, "unauthorized: bad admin token"));
          break;
        }
        dispatch(L, c, id, {}, nullptr, [this, req](const Reply& r) {
          const threshold::Scheme* scheme =
              registry_.find(static_cast<threshold::SchemeId>(req->scheme));
          if (!scheme)
            throw RpcError("unknown scheme id " + std::to_string(req->scheme));
          // Parse + canonicalize the public key, subgroup checks included.
          uint8_t deduped = publish_tenant(
              *req, *scheme, scheme->canonical_public_key(req->pk));
          r.ok({&deduped, 1});
        });
        break;
      }
      case Method::kVerify: {
        auto req = std::make_shared<VerifyRequest>(decode_verify(rd));
        dispatch(L, c, id, {&req->key}, std::move(trace),
                 [this, req, deadline](const Reply& r) {
          // The tenant's registered scheme parses the opaque blob, so the
          // erased handle and its prepared verifier are the same scheme by
          // construction.
          threshold::SigHandle sig = r.scheme->parse_signature(req->sig);
          if (r.trace) r.trace->stamp(obs::Stage::kDecoded);
          verify_->submit(
              req->key, std::move(req->msg), std::move(sig),
              [r](bool ok, std::exception_ptr err) {
                if (err) return r.fail(err);
                uint8_t verdict = ok ? 1 : 0;
                r.ok({&verdict, 1});
              },
              deadline, r.trace);
        });
        break;
      }
      case Method::kBatchVerify: {
        auto req =
            std::make_shared<BatchVerifyRequest>(decode_batch_verify(rd));
        double cost = std::max(1.0, double(req->items.size()));
        dispatch(L, c, id, {&req->key, false, cost}, std::move(trace),
                 [this, req, deadline](const Reply& r) {
          // Each item folds into the next flush fold like any
          // other submission and settles once; the LAST to settle answers.
          // `outstanding` starts one above the item count — this task's own
          // share, released once every item is staged — so no early verdict
          // answers while later items are still being parsed, and an empty
          // batch still answers. The batch shares ONE trace.
          struct Batch {
            std::mutex m;
            std::vector<uint8_t> verdicts;
            size_t outstanding = 0;
            std::exception_ptr error;  // the first failure answers the batch
          };
          const size_t n = req->items.size();
          auto b = std::make_shared<Batch>();
          b->verdicts.assign(n, 0);
          b->outstanding = n + 1;
          auto settle = [r, b](size_t j, bool ok, std::exception_ptr err) {
            {
              std::lock_guard<std::mutex> l(b->m);
              if (j < b->verdicts.size()) b->verdicts[j] = ok && !err;
              if (err && !b->error) b->error = err;
              if (--b->outstanding > 0) return;
            }
            if (b->error) return r.fail(b->error);
            ByteWriter w;
            w.u32(static_cast<uint32_t>(b->verdicts.size()));
            w.raw(b->verdicts);
            r.ok(w.bytes());
          };
          if (r.trace) r.trace->stamp(obs::Stage::kDecoded);
          for (size_t j = 0; j < n; ++j) {
            try {
              threshold::SigHandle sig =
                  r.scheme->parse_signature(req->items[j].second);
              verify_->submit(
                  req->key, std::move(req->items[j].first), std::move(sig),
                  [settle, j](bool ok, std::exception_ptr err) {
                    settle(j, ok, err);
                  },
                  deadline, r.trace);
            } catch (const std::exception&) {
              settle(j, false, nullptr);  // malformed: a 0, never submitted
            }
          }
          settle(n, false, nullptr);
        });
        break;
      }
      case Method::kCombine: {
        auto req = std::make_shared<CombineRequest>(decode_combine(rd));
        dispatch(L, c, id, {&req->key, true}, std::move(trace),
                 [this, req](const Reply& r) {
          std::vector<threshold::PartialHandle> parts;
          parts.reserve(req->partials.size());
          for (const auto& p : req->partials)
            parts.push_back(r.scheme->parse_partial(p));
          if (r.trace) r.trace->stamp(obs::Stage::kDecoded);
          combine_->submit(
              req->key, r.scheme->id(), std::move(req->msg), std::move(parts),
              [r](service::CombineOutcome* out, std::exception_ptr err) {
                if (err) return r.fail(err);
                r.ok(encode_combine_result({out->sig, out->cheaters}));
              },
              r.trace);
        });
        break;
      }
    }
    L.frames_in.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const std::exception&) {
    // Structural violation (truncated body, bad counts, unknown ids,
    // trailing bytes): the frame itself is malformed -> close, no response.
    return false;
  }
}

bool RpcServer::publish_tenant(RegisterTenantRequest& req,
                               const threshold::Scheme& scheme, Bytes pk) {
  // The digest of the CANONICAL bytes is the shared cache key, so every
  // tenant of the same pk (and scheme) lands on one prepared entry
  // regardless of who registered first.
  std::string digest = std::string(scheme.name()) + ":" + hex_digest(pk);
  std::string committee_digest;
  std::shared_ptr<const threshold::Committee> committee;
  if (req.committee) {
    if (!scheme.supports_combine())
      throw RpcError(std::string(scheme.name()) +
                     ": scheme does not support serving-side combine");
    auto cm = std::make_shared<threshold::Committee>();
    cm->pk = pk;
    cm->n = req.n;
    cm->t = req.t;
    cm->vks = std::move(req.vks);
    // Committee-level dedup: identical full material shares one prepared
    // combiner. Verification keys are parsed lazily by make_combiner on the
    // first COMBINE miss (a malformed vk then fails that request
    // attributably, never the daemon).
    Sha256 hs;
    hs.update(pk);
    ByteWriter nt;
    nt.u32(cm->n);
    nt.u32(cm->t);
    hs.update(nt.bytes());
    for (const auto& vk : cm->vks) hs.update(vk);
    committee_digest =
        std::string(scheme.name()) + ":committee:" + to_hex(hs.finalize());
    committee = std::move(cm);
  }

  // Ordering matters: the digest-keyed material is published under reg_m_
  // BEFORE the cache alias becomes visible, so a pool worker that resolves
  // the new alias always finds the digest's (immutable) material.
  {
    std::lock_guard<std::mutex> l(reg_m_);
    pk_by_digest_.emplace(digest, PkEntry{scheme.id(), std::move(pk)});
    if (committee)
      committee_by_digest_.emplace(committee_digest,
                                   CommitteeEntry{scheme.id(), committee});
  }
  bool deduped = verifier_cache_.add_alias(req.key, digest);
  if (committee) combiner_cache_.add_alias(req.key, committee_digest);
  if (deduped)
    deduped_by_scheme_[threshold::scheme_stats_slot(scheme.id())].fetch_add(
        1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> l(reg_m_);
  tenants_[req.key] = TenantInfo{scheme.id(), req.committee};
  return deduped;
}

service::ServiceStats RpcServer::verify_stats() const {
  return verify_->stats();
}

HealthStats RpcServer::snapshot_health() const {
  HealthStats h;
  h.in_flight = in_flight_.load(std::memory_order_acquire);
  h.inflight_cap = cfg_.max_in_flight;
  h.queue_depth = verify_->pending();
  // Exact per-loop aggregation: each loop owns its slice, HEALTH sums them.
  for (const auto& L : loops_) {
    h.busy_inflight += L->busy_inflight.load(std::memory_order_relaxed);
    h.busy_ratelimit += L->busy_ratelimit.load(std::memory_order_relaxed);
    h.shed_arrival += L->shed_arrival.load(std::memory_order_relaxed);
  }
  h.shed_in_service = verify_->stats().deadline_sheds;
  return h;
}

DaemonStats RpcServer::snapshot_stats() const {
  DaemonStats s;
  // Per-tenant routing table: total + per-scheme tenant counts.
  std::array<uint64_t, threshold::kSchemeIdCount + 1> tenants_by_scheme{};
  {
    std::lock_guard<std::mutex> l(reg_m_);
    s.tenants = tenants_.size();
    for (const auto& [key, info] : tenants_)
      ++tenants_by_scheme[threshold::scheme_stats_slot(info.scheme)];
  }
  // Exact per-loop aggregation (the connection/frame/error counters each
  // live on the loop that observed them). `connections` is the LIFETIME
  // accept count; the live gauge is total_conns_, which accept reservation
  // increments and close_conn decrements.
  for (const auto& L : loops_) {
    s.connections += L->accepts.load(std::memory_order_relaxed);
    s.conns_rejected += L->rejected.load(std::memory_order_relaxed);
    s.frames_in += L->frames_in.load(std::memory_order_relaxed);
    s.protocol_errors += L->protocol_errors.load(std::memory_order_relaxed);
  }
  s.open_connections = total_conns_.load(std::memory_order_acquire);
  s.auth_failures = auth_failures_.load(std::memory_order_relaxed);

  auto add_cache = [&s](const service::KeyCacheStats& cs) {
    s.cache_hits += cs.hits;
    s.cache_misses += cs.misses;
    s.cache_evictions += cs.evictions;
    s.cache_resident_entries += cs.resident_entries;
    s.cache_resident_bytes += cs.resident_bytes;
  };
  auto vc = verifier_cache_.stats();
  add_cache(vc);
  add_cache(combiner_cache_.stats());
  // pk-level dedup: tenants that mapped onto an already-registered pk
  // digest in the verifier cache (the combiner's committee-level aliases
  // would double-count the same tenants).
  s.deduped_keys = vc.deduped;

  // ONE lock acquisition for the verify totals AND every per-scheme slice:
  // separate stats() calls could interleave with a flush committing
  // verdicts, making the global row disagree with the sum of the per-scheme
  // rows and transiently breaking the accounting identity
  //   submitted == accepted + rejected + sheds + errors + in_progress
  // that the chaos tests (and any alerting built on STATS) assert on.
  service::MultiTenantVerificationService::StatsBundle vb =
      verify_->stats_all();
  const service::ServiceStats& vs = vb.total;
  s.verify_submitted = vs.submitted;
  s.verify_batches = vs.batches;
  s.verify_fallbacks = vs.fallbacks;
  s.verify_accepted = vs.accepted;
  s.verify_rejected = vs.rejected;
  s.verify_sheds = vs.deadline_sheds;
  s.verify_errors = vs.errors;
  s.verify_in_progress = vs.in_progress;
  s.combines = combine_->stats().submitted;

  // One row per scheme the registry serves — the registry knows every
  // scheme uniformly, so nothing here is per-family code.
  for (const threshold::Scheme* scheme : registry_.schemes()) {
    SchemeStatsRow row;
    row.scheme = static_cast<uint8_t>(scheme->id());
    row.tenants = tenants_by_scheme[threshold::scheme_stats_slot(scheme->id())];
    row.deduped = deduped_by_scheme_[threshold::scheme_stats_slot(scheme->id())].load(
        std::memory_order_relaxed);
    const service::ServiceStats& sv =
        vb.by_scheme[threshold::scheme_stats_slot(scheme->id())];
    row.verify_submitted = sv.submitted;
    row.verify_batches = sv.batches;
    row.verify_fallbacks = sv.fallbacks;
    row.verify_accepted = sv.accepted;
    row.verify_rejected = sv.rejected;
    row.verify_sheds = sv.deadline_sheds;
    row.verify_errors = sv.errors;
    row.verify_in_progress = sv.in_progress;
    auto cs = combine_->stats(scheme->id());
    row.cache_lookups = sv.cache_lookups + cs.cache_lookups;
    row.cache_misses = sv.cache_misses + cs.cache_misses;
    row.combines = cs.submitted;
    s.schemes.push_back(row);
  }
  return s;
}

obs::MetricsSnapshot RpcServer::metrics_snapshot(bool include_traces) const {
  obs::MetricsSnapshot m;
  DaemonStats s = snapshot_stats();
  HealthStats h = snapshot_health();

  auto points = [&m](const auto& stats, const auto& table,
                     const std::string& labels) {
    for (const auto& f : table)
      m.points.push_back({std::string(f.metric), labels, f.kind,
                          stats.*f.member});
  };
  points(s, kDaemonStatsFields, "");
  points(h, kHealthFields, "");

  for (const threshold::Scheme* scheme : registry_.schemes()) {
    const SchemeStatsRow* row = nullptr;
    for (const auto& r : s.schemes)
      if (r.scheme == uint8_t(scheme->id())) row = &r;
    if (!row) continue;
    std::string lbl = "scheme=\"" + std::string(scheme->name()) + "\"";
    points(*row, kSchemeRowFields, lbl);

    obs::HistogramSnapshot vlat = verify_->latency(scheme->id());
    if (vlat.count)
      m.histograms.push_back(obs::MetricHistogram{
          "bnr_verify_latency_seconds", lbl, std::move(vlat)});
    obs::HistogramSnapshot clat = combine_->latency(scheme->id());
    if (clat.count)
      m.histograms.push_back(obs::MetricHistogram{
          "bnr_combine_latency_seconds", lbl, std::move(clat)});
  }

  m.histograms.push_back(obs::MetricHistogram{
      "bnr_request_latency_seconds", "", request_hist_->snapshot()});
  m.histograms.push_back(obs::MetricHistogram{
      "bnr_pool_task_wait_seconds", "", pool_.task_wait_latency()});
  m.histograms.push_back(obs::MetricHistogram{
      "bnr_pool_task_exec_seconds", "", pool_.task_exec_latency()});
  m.histograms.push_back(obs::MetricHistogram{
      "bnr_pool_queue_depth", "", pool_.queue_depth_samples()});

  if (include_traces) {
    m.slow_traces = trace_ring_.snapshot();
    m.slow_trace_cap = trace_ring_.capacity();
  }
  return m;
}

}  // namespace bnr::rpc
