#include "rpc/rpc_client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <system_error>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"
#include "rpc/fault_injector.hpp"

namespace bnr::rpc {

namespace {

int connect_tcp(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  std::string port_s = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_s.c_str(), &hints, &res);
  if (rc != 0)
    throw std::system_error(std::make_error_code(std::errc::host_unreachable),
                            std::string("getaddrinfo: ") + gai_strerror(rc));
  int fd = -1;
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0)
    throw std::system_error(errno, std::generic_category(), "connect");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

RpcClient::RpcClient(const std::string& host, uint16_t port, ClientConfig cfg)
    : cfg_(cfg),
      host_(host),
      port_(port),
      rng_(Rng::from_entropy().next_u64()) {
  int fd = connect_tcp(host, port);
  fd_ = fd;
  wfd_ = fd;
  epoch_ = 1;
  wepoch_ = 1;
  connected_ = true;
  keeper_ = std::thread([this] { keeper_loop(); });
  reader_ = std::thread([this] { reader_loop(); });
}

RpcClient::~RpcClient() { close(); }

void RpcClient::close() {
  std::vector<CallPtr> orphans;
  {
    std::unique_lock<std::mutex> l(m_);
    if (stopping_) return;  // already torn down
    closing_ = true;
    cv_.notify_all();
    // Drain: retries and reconnects keep running, so a transient blip does
    // not cost the caller its in-flight work — but a stalled server cannot
    // hold the destructor hostage past drain_timeout.
    cv_.wait_for(l, cfg_.drain_timeout,
                 [&] { return inflight_.empty() && waiting_.empty(); });
    stopping_ = true;
    connected_ = false;
    for (auto& [id, c] : inflight_) orphans.push_back(c);
    inflight_.clear();
    orphans.insert(orphans.end(), waiting_.begin(), waiting_.end());
    waiting_.clear();
    abandoned_.clear();
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  cv_.notify_all();
  auto err = std::make_exception_ptr(
      ProtocolError("client closed before a response arrived"));
  for (auto& c : orphans) c->handler.fail(err);
  if (keeper_.joinable()) keeper_.join();
  if (reader_.joinable()) reader_.join();
  std::lock_guard<std::mutex> wl(w_m_);
  if (wfd_ >= 0) ::close(wfd_);
  wfd_ = -1;
}

bool RpcClient::closed() const {
  std::lock_guard<std::mutex> l(m_);
  return closing_ || poisoned_ || (!connected_ && !cfg_.auto_reconnect);
}

ClientStats RpcClient::client_stats() const {
  std::lock_guard<std::mutex> l(m_);
  return stats_;
}

std::chrono::milliseconds RpcClient::backoff_for(uint32_t attempts) {
  long long base = cfg_.retry.initial_backoff.count();
  long long cap = std::max<long long>(base, cfg_.retry.max_backoff.count());
  for (uint32_t i = 1; i < attempts && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  return std::chrono::milliseconds(
      static_cast<long long>(double(base) * jitter(rng_)));
}

void RpcClient::enqueue(Method m, bool idempotent, Encoder encode,
                        PendingHandler handler, const RequestOptions& opts) {
  auto call = std::make_shared<Call>();
  call->encode = std::move(encode);
  call->handler = std::move(handler);
  call->method = m;
  call->idempotent = idempotent;
  auto now = Clock::now();
  auto dl = opts.deadline.count() >= 0 ? opts.deadline : cfg_.default_deadline;
  call->deadline = dl.count() > 0 ? now + dl : Clock::time_point::max();
  call->max_attempts = opts.max_attempts
                           ? opts.max_attempts
                           : std::max(1u, cfg_.retry.max_attempts);
  uint64_t id = 0, epoch = 0;
  bool send = false;
  {
    std::lock_guard<std::mutex> l(m_);
    if (closing_ || poisoned_ || (!connected_ && !cfg_.auto_reconnect))
      throw ProtocolError("rpc session is closed");
    if (connected_) {
      id = next_id_++;
      ++call->attempts;
      inflight_.emplace(id, call);
      epoch = epoch_;
      send = true;
    } else {
      // Disconnected: park it for the keeper, which reconnects and sends.
      call->retry_at = now;
      waiting_.push_back(call);
    }
  }
  // Wake the keeper either way: a new deadline to track, or work to send.
  if (send) send_call(call, id, epoch);
  cv_.notify_all();
}

void RpcClient::send_call(const CallPtr& call, uint64_t id, uint64_t epoch) {
  Bytes framed;
  try {
    std::optional<uint32_t> budget;
    if (call->deadline != Clock::time_point::max()) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      call->deadline - Clock::now())
                      .count();
      budget = left <= 0 ? 0u
                         : static_cast<uint32_t>(std::min<long long>(
                               left, std::numeric_limits<uint32_t>::max()));
    }
    Bytes payload = call->encode(id, budget);
    framed.reserve(4 + payload.size());
    append_frame(framed, payload, cfg_.max_frame);
  } catch (...) {
    // The request never hit the wire and never will: withdraw it so the
    // caller's throw is the only completion it gets.
    std::lock_guard<std::mutex> l(m_);
    inflight_.erase(id);
    throw;
  }
  bool io_failed = false;
  {
    std::lock_guard<std::mutex> wl(w_m_);
    // Revalidate under the write lock: if the session died (or was rebuilt)
    // since this attempt was registered, session_death already rerouted it.
    if (wepoch_ != epoch || wfd_ < 0) return;
    call->written.store(true, std::memory_order_relaxed);
    size_t off = 0;
    while (off < framed.size()) {
      size_t len = framed.size() - off;
      if (auto* f = FaultInjector::active()) {
        auto fault = f->on_io(FaultInjector::kClientWrite, len);
        if (fault == FaultInjector::IoFault::kEagain) {
          std::this_thread::yield();
          continue;
        }
        if (fault == FaultInjector::IoFault::kReset) {
          io_failed = true;
          break;
        }
      }
      ssize_t n = ::send(wfd_, framed.data() + off, len, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        io_failed = true;
        break;
      }
      off += size_t(n);
    }
  }
  if (io_failed) {
    session_death(epoch, "send failed");
    return;
  }
  std::lock_guard<std::mutex> l(m_);
  ++stats_.sent;
  if (call->attempts > 1) ++stats_.retries;
}

void RpcClient::session_death(uint64_t epoch, const char* why) {
  std::vector<std::pair<CallPtr, std::exception_ptr>> fail;
  {
    std::lock_guard<std::mutex> l(m_);
    if (stopping_ || poisoned_) return;
    if (!connected_ || epoch_ != epoch) return;  // stale observer
    connected_ = false;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    abandoned_.clear();  // old-connection ids can never answer now
    auto now = Clock::now();
    for (auto& [id, call] : inflight_) {
      bool retryable =
          cfg_.auto_reconnect &&
          (call->idempotent || !call->written.load(std::memory_order_relaxed));
      if (!retryable) {
        fail.emplace_back(
            call, std::make_exception_ptr(ProtocolError(
                      std::string("connection lost before response: ") + why)));
      } else if (call->attempts >= call->max_attempts) {
        ++stats_.exhausted;
        fail.emplace_back(
            call, std::make_exception_ptr(RetriesExhausted(
                      std::string("retries exhausted: ") + why)));
      } else {
        call->written.store(false, std::memory_order_relaxed);
        call->retry_at = now + backoff_for(call->attempts);
        waiting_.push_back(call);
      }
    }
    inflight_.clear();
    if (!cfg_.auto_reconnect) {
      for (auto& c : waiting_)
        fail.emplace_back(c, std::make_exception_ptr(ProtocolError(
                                 std::string("connection lost: ") + why)));
      waiting_.clear();
    }
    reconnect_at_ = now;  // first rebuild attempt is immediate
    reconnect_backoff_ = std::chrono::milliseconds(0);
  }
  cv_.notify_all();
  for (auto& [c, e] : fail) c->handler.fail(e);
}

void RpcClient::poison(const char* why) {
  std::vector<CallPtr> orphans;
  {
    std::lock_guard<std::mutex> l(m_);
    if (poisoned_) return;
    poisoned_ = true;
    connected_ = false;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    for (auto& [id, c] : inflight_) orphans.push_back(c);
    inflight_.clear();
    orphans.insert(orphans.end(), waiting_.begin(), waiting_.end());
    waiting_.clear();
    abandoned_.clear();
  }
  cv_.notify_all();
  auto err = std::make_exception_ptr(ProtocolError(why));
  for (auto& c : orphans) c->handler.fail(err);
}

bool RpcClient::handle_response(const Bytes& frame, uint64_t epoch) {
  CallPtr call;
  try {
    ByteReader rd(frame);
    ResponseHeader h = decode_response_header(rd);
    {
      std::lock_guard<std::mutex> l(m_);
      // A write-path failure can kill the epoch while responses for already-
      // rerouted calls still sit in the kernel buffer; those frames belong
      // to a session that no longer exists. Dropping them (instead of
      // reading them as protocol violations) is what keeps "exactly one
      // completion per request" true across a mid-pipeline reset.
      if (!connected_ || epoch_ != epoch) return false;
      auto it = inflight_.find(h.request_id);
      if (it == inflight_.end()) {
        // A late answer for a locally-expired request is dropped, not read
        // as corruption; anything else unknown means the stream is lying.
        if (abandoned_.erase(h.request_id)) return true;
        throw ProtocolError("response for unknown request id");
      }
      call = it->second;
      inflight_.erase(it);
      if (h.status == Status::kBusy) ++stats_.busy;
      if (h.status == Status::kShed) ++stats_.shed;
    }
    switch (h.status) {
      case Status::kOk:
        call->handler.ok(rd);
        return true;
      case Status::kError: {
        std::string msg = decode_str(rd);
        expect_frame_done(rd, "ERROR response");
        call->handler.fail(std::make_exception_ptr(RpcError(msg)));
        return true;
      }
      case Status::kShed: {
        // The server dropped it with the budget already spent; retrying the
        // same budget cannot succeed, so this surfaces as a deadline.
        std::string msg = decode_str(rd);
        expect_frame_done(rd, "SHED response");
        call->handler.fail(std::make_exception_ptr(DeadlineExceeded(msg)));
        return true;
      }
      case Status::kBusy: {
        // Declined BEFORE any work: safe to retry for every method, with
        // backoff, while the attempt and deadline budgets last.
        std::string msg = decode_str(rd);
        expect_frame_done(rd, "BUSY response");
        bool retry = false;
        {
          std::lock_guard<std::mutex> l(m_);
          if (!closing_ && call->attempts < call->max_attempts &&
              Clock::now() < call->deadline) {
            call->written.store(false, std::memory_order_relaxed);
            call->retry_at = Clock::now() + backoff_for(call->attempts);
            waiting_.push_back(call);
            retry = true;
          } else {
            ++stats_.exhausted;
          }
        }
        if (retry)
          cv_.notify_all();
        else
          call->handler.fail(std::make_exception_ptr(RetriesExhausted(
              "server busy and retry budget spent: " + msg)));
        return true;
      }
    }
    return true;  // unreachable; decode rejects unknown statuses
  } catch (const std::exception&) {
    // A response we cannot parse (or cannot attribute) means the stream
    // itself can no longer be trusted: poison the session.
    if (call)
      call->handler.fail(std::make_exception_ptr(
          ProtocolError("malformed response from server")));
    poison("malformed response from server");
    return false;
  }
}

void RpcClient::read_session(int rfd, uint64_t epoch) {
  FrameBuffer frames(cfg_.max_frame);
  uint8_t buf[65536];
  Bytes frame;
  for (;;) {
    size_t want = sizeof(buf);
    if (auto* f = FaultInjector::active()) {
      auto fault = f->on_io(FaultInjector::kClientRead, want);
      if (fault == FaultInjector::IoFault::kEagain) {
        std::this_thread::yield();
        continue;
      }
      if (fault == FaultInjector::IoFault::kReset) {
        session_death(epoch, "injected reset");
        return;
      }
    }
    ssize_t n = ::recv(rfd, buf, want, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      session_death(epoch, "connection closed by server");
      return;
    }
    frames.feed({buf, size_t(n)});
    for (;;) {
      auto r = frames.next(frame);
      if (r == FrameBuffer::Result::kNeedMore) break;
      if (r == FrameBuffer::Result::kTooBig) {
        poison("oversized frame from server");
        return;
      }
      if (!handle_response(frame, epoch)) return;
    }
  }
}

void RpcClient::reader_loop() {
  for (;;) {
    int rfd;
    uint64_t epoch;
    {
      std::unique_lock<std::mutex> l(m_);
      reader_parked_ = true;
      cv_.notify_all();  // the keeper may be waiting to swap the socket
      cv_.wait(l, [&] { return stopping_ || connected_; });
      if (stopping_) return;
      reader_parked_ = false;
      rfd = fd_;
      epoch = epoch_;
    }
    read_session(rfd, epoch);
  }
}

void RpcClient::try_reconnect() {
  int newfd = -1;
  try {
    newfd = connect_tcp(host_, port_);
  } catch (...) {
    newfd = -1;
  }
  if (newfd >= 0) {
    uint64_t next_epoch;
    {
      std::lock_guard<std::mutex> l(m_);
      next_epoch = epoch_ + 1;
    }
    {
      // Swap the write side first: any sender that raced in still holds the
      // OLD epoch and bails on the wepoch_ check instead of writing a frame
      // the new connection's registrations do not cover.
      std::lock_guard<std::mutex> wl(w_m_);
      if (wfd_ >= 0) ::close(wfd_);
      wfd_ = newfd;
      wepoch_ = next_epoch;
    }
    {
      std::lock_guard<std::mutex> l(m_);
      if (stopping_) {
        // close() won the race; leave the fd for its w_m_ cleanup.
        return;
      }
      fd_ = newfd;
      epoch_ = next_epoch;
      connected_ = true;
      ++stats_.reconnects;
      reconnect_backoff_ = std::chrono::milliseconds(0);
    }
    cv_.notify_all();  // unpark the reader; keeper resends what is waiting
    return;
  }
  // Connect failed: charge an attempt to every request waiting on the
  // rebuild, so a persistently dead server bounds every future instead of
  // hanging the deadline-less ones forever.
  std::vector<CallPtr> exhausted;
  {
    std::lock_guard<std::mutex> l(m_);
    std::erase_if(waiting_, [&](const CallPtr& c) {
      if (++c->attempts >= c->max_attempts) {
        exhausted.push_back(c);
        return true;
      }
      return false;
    });
    stats_.exhausted += exhausted.size();
    reconnect_backoff_ =
        reconnect_backoff_.count() == 0
            ? cfg_.retry.initial_backoff
            : std::min(cfg_.retry.max_backoff, reconnect_backoff_ * 2);
    reconnect_at_ = Clock::now() + reconnect_backoff_;
  }
  if (!exhausted.empty()) {
    auto err = std::make_exception_ptr(
        RetriesExhausted("retries exhausted: cannot reconnect to server"));
    for (auto& c : exhausted) c->handler.fail(err);
    cv_.notify_all();  // a drain may now be complete
  }
}

void RpcClient::keeper_loop() {
  std::unique_lock<std::mutex> l(m_);
  for (;;) {
    if (stopping_) return;
    auto now = Clock::now();

    // 1) Deadlines, wherever the call currently lives. The id stays in
    // abandoned_ so a late response is dropped instead of poisoning.
    std::vector<CallPtr> expired;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->second->deadline <= now) {
        abandoned_.insert(it->first);
        expired.push_back(it->second);
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(waiting_, [&](const CallPtr& c) {
      if (c->deadline <= now) {
        expired.push_back(c);
        return true;
      }
      return false;
    });
    if (!expired.empty()) {
      stats_.deadline_local += expired.size();
      l.unlock();
      auto err = std::make_exception_ptr(
          DeadlineExceeded("deadline exceeded before a response arrived"));
      for (auto& c : expired) c->handler.fail(err);
      cv_.notify_all();  // a drain may now be complete
      l.lock();
      continue;
    }

    // 2) Retries whose backoff elapsed, if there is a live connection.
    if (connected_) {
      std::vector<std::pair<CallPtr, uint64_t>> due;
      uint64_t epoch = epoch_;
      std::erase_if(waiting_, [&](const CallPtr& c) {
        if (c->retry_at > now) return false;
        uint64_t id = next_id_++;
        ++c->attempts;
        inflight_.emplace(id, c);
        due.emplace_back(c, id);
        return true;
      });
      if (!due.empty()) {
        l.unlock();
        for (auto& [c, id] : due) send_call(c, id, epoch);
        l.lock();
        continue;
      }
    } else if (cfg_.auto_reconnect && !poisoned_ && reader_parked_ &&
               (!closing_ || !waiting_.empty()) && now >= reconnect_at_) {
      l.unlock();
      try_reconnect();
      l.lock();
      continue;
    }

    // 3) Sleep until the next actionable instant.
    auto wake = Clock::time_point::max();
    for (auto& [id, c] : inflight_) wake = std::min(wake, c->deadline);
    for (auto& c : waiting_) {
      wake = std::min(wake, c->deadline);
      if (connected_) wake = std::min(wake, c->retry_at);
    }
    if (!connected_ && cfg_.auto_reconnect && !poisoned_ && reader_parked_ &&
        (!closing_ || !waiting_.empty()))
      wake = std::min(wake, reconnect_at_);
    if (wake == Clock::time_point::max())
      cv_.wait(l);
    else
      cv_.wait_until(l, wake);
  }
}


// ---------------------------------------------------------------------------
// The call core and the request fronts over it. Each front names its
// encoder (holding the request, so a retry re-encodes it under a fresh id)
// and its body decoder, which must consume the body EXACTLY: trailing bytes
// are a protocol violation surfaced by the throw in handle_response.

template <class T>
void RpcClient::call(Method m, bool idempotent, Encoder encode,
                     std::function<T(ByteReader&)> decode,
                     std::function<void(T*, std::exception_ptr)> done,
                     const RequestOptions& opts) {
  // Whichever half runs first takes `done`, so a throw escaping the callback
  // (read by handle_response as a failed response) cannot complete twice.
  auto once =
      std::make_shared<std::function<void(T*, std::exception_ptr)>>(
          std::move(done));
  PendingHandler h;
  h.ok = [decode = std::move(decode), once](ByteReader& rd) {
    if constexpr (std::is_void_v<T>) {
      decode(rd);
      if (auto fire = std::exchange(*once, nullptr)) fire(nullptr, nullptr);
    } else {
      T value = decode(rd);
      if (auto fire = std::exchange(*once, nullptr)) fire(&value, nullptr);
    }
  };
  h.fail = [once](std::exception_ptr e) {
    if (auto fire = std::exchange(*once, nullptr)) fire(nullptr, std::move(e));
  };
  enqueue(m, idempotent, std::move(encode), std::move(h), opts);
}

template <class T>
std::future<T> RpcClient::ask(Method m, bool idempotent, Encoder encode,
                              std::function<T(ByteReader&)> decode,
                              const RequestOptions& opts) {
  auto prom = std::make_shared<std::promise<T>>();
  auto fut = prom->get_future();
  call<T>(m, idempotent, std::move(encode), std::move(decode),
          [prom](T* value, std::exception_ptr err) {
            if (err)
              prom->set_exception(std::move(err));
            else if constexpr (std::is_void_v<T>)
              prom->set_value();
            else
              prom->set_value(std::move(*value));
          },
          opts);
  return fut;
}

namespace {

auto empty_request(Method m) {
  return [m](uint64_t id, std::optional<uint32_t> b) {
    return encode_empty_request(m, id, b);
  };
}

auto verify_request(const std::string& key, Bytes msg, Bytes sig) {
  auto req = std::make_shared<VerifyRequest>(
      VerifyRequest{key, std::move(msg), std::move(sig)});
  return [req](uint64_t id, std::optional<uint32_t> b) {
    return encode_verify(id, *req, b);
  };
}

bool read_verdict(ByteReader& rd) {
  bool ok = rd.u8() != 0;
  expect_frame_done(rd, "VERIFY response");
  return ok;
}

auto combine_request(const std::string& key, Bytes msg,
                     std::vector<Bytes> partials) {
  auto req = std::make_shared<CombineRequest>(
      CombineRequest{key, std::move(msg), std::move(partials)});
  return [req](uint64_t id, std::optional<uint32_t> b) {
    return encode_combine(id, *req, b);
  };
}

CombineResult read_combine(ByteReader& rd) {
  CombineResult r = decode_combine_result(rd);
  expect_frame_done(rd, "COMBINE response");
  return r;
}

}  // namespace

std::future<void> RpcClient::ping(RequestOptions opts) {
  return ask<void>(
      Method::kPing, true, empty_request(Method::kPing),
      [](ByteReader& rd) { expect_frame_done(rd, "PING response"); }, opts);
}

std::future<bool> RpcClient::register_tenant(RegisterTenantRequest req) {
  req.token = admin_token_;
  auto shared = std::make_shared<RegisterTenantRequest>(std::move(req));
  // Registration is NOT marked idempotent: it is only resent when the frame
  // never hit the wire (a BUSY cannot happen — it is an admin method).
  return ask<bool>(
      Method::kRegisterTenant, false,
      [shared](uint64_t id, std::optional<uint32_t>) {
        return encode_register(id, *shared);
      },
      [](ByteReader& rd) {
        bool deduped = rd.u8() != 0;
        expect_frame_done(rd, "REGISTER response");
        return deduped;
      },
      {});
}

std::future<bool> RpcClient::register_key(const std::string& key,
                                          threshold::SchemeId scheme,
                                          Bytes pk_bytes) {
  RegisterTenantRequest req;
  req.key = key;
  req.scheme = static_cast<uint8_t>(scheme);
  req.pk = std::move(pk_bytes);
  return register_tenant(std::move(req));
}

std::future<bool> RpcClient::register_committee(
    const std::string& key, threshold::SchemeId scheme,
    const threshold::Committee& committee) {
  RegisterTenantRequest req;
  req.key = key;
  req.scheme = static_cast<uint8_t>(scheme);
  req.committee = true;
  req.pk = committee.pk;
  req.n = committee.n;
  req.t = committee.t;
  req.vks = committee.vks;
  return register_tenant(std::move(req));
}

std::future<bool> RpcClient::register_ro_key(const std::string& key,
                                             const threshold::PublicKey& pk) {
  return register_key(key, threshold::SchemeId::kRo, pk.serialize());
}

std::future<bool> RpcClient::register_ro_committee(
    const std::string& key, const threshold::KeyMaterial& km) {
  threshold::Committee c;
  c.pk = km.pk.serialize();
  c.n = static_cast<uint32_t>(km.n);
  c.t = static_cast<uint32_t>(km.t);
  c.vks.reserve(km.vks.size());
  for (const auto& vk : km.vks) c.vks.push_back(vk.serialize());
  return register_committee(key, threshold::SchemeId::kRo, c);
}

std::future<bool> RpcClient::verify_bytes(const std::string& key, Bytes msg,
                                          Bytes sig_bytes,
                                          RequestOptions opts) {
  return ask<bool>(Method::kVerify, true,
                   verify_request(key, std::move(msg), std::move(sig_bytes)),
                   read_verdict, opts);
}

void RpcClient::verify_async(
    const std::string& key, Bytes msg, Bytes sig_bytes,
    std::function<void(bool ok, std::exception_ptr err)> cb,
    RequestOptions opts) {
  call<bool>(Method::kVerify, true,
             verify_request(key, std::move(msg), std::move(sig_bytes)),
             read_verdict,
             [cb = std::move(cb)](bool* ok, std::exception_ptr err) {
               cb(ok && *ok, std::move(err));
             },
             opts);
}

std::future<std::vector<bool>> RpcClient::batch_verify_bytes(
    const std::string& key, std::vector<std::pair<Bytes, Bytes>> items,
    RequestOptions opts) {
  auto req = std::make_shared<BatchVerifyRequest>(
      BatchVerifyRequest{key, std::move(items)});
  const size_t expect = req->items.size();
  return ask<std::vector<bool>>(
      Method::kBatchVerify, true,
      [req](uint64_t id, std::optional<uint32_t> b) {
        return encode_batch_verify(id, *req, b);
      },
      [expect](ByteReader& rd) {
        uint32_t n = rd.count(1);
        if (n != expect)
          throw ProtocolError("BATCH_VERIFY result count mismatch");
        std::vector<bool> out(n);
        for (uint32_t j = 0; j < n; ++j) out[j] = rd.u8() != 0;
        expect_frame_done(rd, "BATCH_VERIFY response");
        return out;
      },
      opts);
}

std::future<std::vector<bool>> RpcClient::batch_verify(
    const std::string& key,
    std::span<const std::pair<Bytes, threshold::Signature>> items,
    RequestOptions opts) {
  std::vector<std::pair<Bytes, Bytes>> raw;
  raw.reserve(items.size());
  for (const auto& [msg, sig] : items) raw.emplace_back(msg, sig.serialize());
  return batch_verify_bytes(key, std::move(raw), opts);
}

// COMBINE mutates nothing server-side but its cost is real; it is resent
// only when the frame never hit the wire (or after a BUSY, which is always
// pre-work).
std::future<CombineResult> RpcClient::combine_bytes(const std::string& key,
                                                    Bytes msg,
                                                    std::vector<Bytes> partials,
                                                    RequestOptions opts) {
  return ask<CombineResult>(
      Method::kCombine, false,
      combine_request(key, std::move(msg), std::move(partials)), read_combine,
      opts);
}

void RpcClient::combine_async(
    const std::string& key, Bytes msg, std::vector<Bytes> partials,
    std::function<void(CombineResult* result, std::exception_ptr err)> cb,
    RequestOptions opts) {
  call<CombineResult>(
      Method::kCombine, false,
      combine_request(key, std::move(msg), std::move(partials)), read_combine,
      std::move(cb), opts);
}

std::future<DaemonStats> RpcClient::stats(RequestOptions opts) {
  return ask<DaemonStats>(Method::kStats, true, empty_request(Method::kStats),
                          [](ByteReader& rd) {
                            DaemonStats s = decode_stats(rd);
                            expect_frame_done(rd, "STATS response");
                            return s;
                          },
                          opts);
}

std::future<HealthStats> RpcClient::health(RequestOptions opts) {
  return ask<HealthStats>(Method::kHealth, true,
                          empty_request(Method::kHealth),
                          [](ByteReader& rd) {
                            HealthStats h = decode_health(rd);
                            expect_frame_done(rd, "HEALTH response");
                            return h;
                          },
                          opts);
}

std::future<obs::MetricsSnapshot> RpcClient::metrics(uint8_t flags,
                                                     RequestOptions opts) {
  // The text bit selects the server-side rendering; this front always wants
  // the structured body (metrics_text() is the rendered front).
  flags &= ~kMetricsText;
  return ask<obs::MetricsSnapshot>(
      Method::kMetrics, true,
      [flags](uint64_t id, std::optional<uint32_t> b) {
        return encode_metrics_request(id, flags, b);
      },
      [](ByteReader& rd) {
        obs::MetricsSnapshot m = decode_metrics_snapshot(rd);
        expect_frame_done(rd, "METRICS response");
        return m;
      },
      opts);
}

std::future<std::string> RpcClient::metrics_text(RequestOptions opts) {
  return ask<std::string>(
      Method::kMetrics, true,
      [](uint64_t id, std::optional<uint32_t> b) {
        return encode_metrics_request(id, kMetricsText | kMetricsTraces, b);
      },
      [](ByteReader& rd) {
        std::string text = decode_str(rd);
        expect_frame_done(rd, "METRICS text response");
        return text;
      },
      opts);
}

}  // namespace bnr::rpc
