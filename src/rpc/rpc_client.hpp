// Client library for the serving daemon's wire protocol.
//
// One RpcClient is one LOGICAL SESSION over a sequence of TCP connections,
// with full PIPELINING: every request carries a fresh u64 id, a background
// reader thread matches response frames back to their promises, and any
// number of requests may be outstanding at once — the daemon completes them
// out of order (batched folds resolve whole per-tenant groups together).
//
// Overload resilience (the part the futures hide):
//
//   * DEADLINES. Every request may carry a deadline — per request via
//     RequestOptions, or a session default via ClientConfig. The remaining
//     budget is stamped into the frame (kMethodBudgetBit) so the SERVER can
//     shed a request whose budget is spent before paying a pairing for it;
//     the CLIENT independently fails the future with DeadlineExceeded when
//     the deadline passes without a response, and a late answer for an
//     expired request is dropped, not treated as corruption.
//   * RETRIES. Capped exponential backoff with jitter. Idempotent methods
//     (PING / VERIFY / BATCH_VERIFY / STATS / HEALTH) are retried after a
//     lost connection; COMBINE and REGISTER are retried only when the frame
//     never hit the wire. A BUSY rejection is retried for EVERY method —
//     the daemon declined it before doing any work. When the attempt budget
//     is spent the future fails with RetriesExhausted.
//   * RECONNECT. A dead connection is rebuilt in the background (capped
//     backoff, attempts charged to the requests waiting on it) and pending
//     retryable requests are resent with fresh ids; `auto_reconnect = false`
//     restores fail-fast single-connection behavior.
//   * BOUNDED TEARDOWN. close() (and the destructor) waits up to
//     `drain_timeout` for outstanding requests, then fails the rest with
//     ProtocolError — a stalled server cannot wedge a client shutdown.
//
// Error surfaces, all attributable on the future:
//   * RpcError        — the server answered ERROR (unknown tenant, bad admin
//                       token, combine with too few valid shares, ...).
//   * DeadlineExceeded — budget spent: locally (no response in time) or
//                       server-side (a SHED response).
//   * RetriesExhausted — BUSY / lost connections exhausted the attempts.
//   * ProtocolError   — the stream itself could not be trusted (malformed
//                       response, oversized frame) or the client closed with
//                       the request still unanswered. A malformed stream
//                       poisons the session permanently; closed() turns true.
//
// The client is SCHEME-AGNOSTIC like the wire: the byte-level fronts
// (register_key / register_committee / verify_bytes / combine_bytes) speak
// opaque scheme-serialized blobs and work for every scheme the daemon's
// registry serves; the typed RO conveniences below them are kept for
// callers holding concrete scheme objects.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rpc/wire.hpp"
#include "threshold/ro_scheme.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr::rpc {

/// The request's deadline budget was spent before a usable answer existed —
/// either no response arrived in time (client-observed) or the server shed
/// it (a SHED response: the budget was already gone when the daemon got to
/// it, so retrying the same budget is pointless).
struct DeadlineExceeded : RpcError {
  using RpcError::RpcError;
};

/// The retry budget was spent: every attempt ended in a BUSY rejection or a
/// lost connection (including failed reconnects charged to the request).
struct RetriesExhausted : RpcError {
  using RpcError::RpcError;
};

/// Capped exponential backoff with jitter: attempt k waits
/// min(initial_backoff * 2^(k-1), max_backoff) scaled by uniform [0.5, 1).
struct RetryPolicy {
  uint32_t max_attempts = 4;  // total attempts, first send included
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{640};
};

struct ClientConfig {
  /// Session-default deadline for every request; 0 = none. Overridable per
  /// request via RequestOptions.
  std::chrono::milliseconds default_deadline{0};
  RetryPolicy retry{};
  /// Rebuild a lost connection in the background and resend retryable
  /// requests. false = a dead connection fails everything outstanding and
  /// the session reports closed(), the pre-resilience behavior.
  bool auto_reconnect = true;
  /// How long close() / the destructor waits for outstanding requests
  /// before failing them with ProtocolError.
  std::chrono::milliseconds drain_timeout{2000};
  uint32_t max_frame = kMaxFrameBytes;
};

/// Per-request overrides for the session defaults.
struct RequestOptions {
  /// Deadline for this request; negative = use the session default, 0 =
  /// explicitly none.
  std::chrono::milliseconds deadline{-1};
  /// Total attempt budget for this request; 0 = use the session policy.
  uint32_t max_attempts = 0;
};

/// Lifetime counters for the session's resilience machinery, for tests and
/// benches to assert exact accounting against the daemon's HEALTH counters.
struct ClientStats {
  uint64_t sent = 0;            // frames written, retries included
  uint64_t retries = 0;         // re-sends after the first attempt
  uint64_t reconnects = 0;      // successful connection rebuilds
  uint64_t busy = 0;            // BUSY responses observed
  uint64_t shed = 0;            // SHED responses observed
  uint64_t deadline_local = 0;  // futures failed client-side on deadline
  uint64_t exhausted = 0;       // futures failed with RetriesExhausted
};

class RpcClient {
 public:
  /// Connects (blocking) to `host:port`; throws std::system_error on
  /// failure. `host` is a dotted quad or "localhost".
  RpcClient(const std::string& host, uint16_t port, ClientConfig cfg = {});

  /// Equivalent to close().
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Stops accepting requests, waits up to cfg.drain_timeout for the
  /// outstanding ones (retries and reconnects keep running during the
  /// drain), fails whatever remains with ProtocolError, and joins the
  /// background threads. Idempotent; not concurrency-safe against itself.
  void close();

  /// Shared secret sent with every subsequent REGISTER_TENANT (ADMIN)
  /// frame. Set before registering against a daemon running --admin-token.
  void set_admin_token(std::string token) { admin_token_ = std::move(token); }

  // -- Scheme-agnostic (byte-level) API -------------------------------------

  std::future<void> ping(RequestOptions opts = {});

  /// Registers a verify-only tenant under `scheme`. The future resolves to
  /// true when the daemon already held prepared state for this public key
  /// under another tenant (the registration was deduplicated).
  std::future<bool> register_key(const std::string& key,
                                 threshold::SchemeId scheme, Bytes pk_bytes);
  /// Registers a committee (public material only): VERIFY and COMBINE.
  std::future<bool> register_committee(const std::string& key,
                                       threshold::SchemeId scheme,
                                       const threshold::Committee& committee);

  std::future<bool> verify_bytes(const std::string& key, Bytes msg,
                                 Bytes sig_bytes, RequestOptions opts = {});
  std::future<std::vector<bool>> batch_verify_bytes(
      const std::string& key, std::vector<std::pair<Bytes, Bytes>> items,
      RequestOptions opts = {});

  /// Callback front for latency-sensitive callers (the overload bench): the
  /// callback runs on the reader thread the moment the response frame is
  /// parsed — no future/promise round trip. Exactly one invocation.
  void verify_async(const std::string& key, Bytes msg, Bytes sig_bytes,
                    std::function<void(bool ok, std::exception_ptr err)> cb,
                    RequestOptions opts = {});

  /// Combine from scheme-serialized partials; the result carries the
  /// serialized combined signature plus attributed cheater indices.
  std::future<CombineResult> combine_bytes(const std::string& key, Bytes msg,
                                           std::vector<Bytes> partials,
                                           RequestOptions opts = {});
  /// Callback front of combine_bytes, like verify_async: exactly one
  /// invocation on a background thread, with the result (null on failure)
  /// or the error (null on success).
  void combine_async(
      const std::string& key, Bytes msg, std::vector<Bytes> partials,
      std::function<void(CombineResult* result, std::exception_ptr err)> cb,
      RequestOptions opts = {});

  std::future<DaemonStats> stats(RequestOptions opts = {});
  /// The daemon's overload counters (in-flight, queue depth, BUSY/SHED
  /// totals); see HealthStats.
  std::future<HealthStats> health(RequestOptions opts = {});
  /// The daemon's full metrics plane (named points, latency histograms,
  /// optionally the slow-trace ring). `flags` is a kMetricsTraces mask;
  /// pass 0 for points + histograms only.
  std::future<obs::MetricsSnapshot> metrics(uint8_t flags = kMetricsTraces,
                                            RequestOptions opts = {});
  /// The same plane rendered server-side as Prometheus text exposition —
  /// what a scrape endpoint would serve.
  std::future<std::string> metrics_text(RequestOptions opts = {});

  // -- Typed conveniences for the paper's schemes ---------------------------

  std::future<bool> register_ro_key(const std::string& key,
                                    const threshold::PublicKey& pk);
  std::future<bool> register_ro_committee(const std::string& key,
                                          const threshold::KeyMaterial& km);

  std::future<bool> verify(const std::string& key, Bytes msg,
                           const threshold::Signature& sig,
                           RequestOptions opts = {}) {
    return verify_bytes(key, std::move(msg), sig.serialize(), opts);
  }
  std::future<std::vector<bool>> batch_verify(
      const std::string& key,
      std::span<const std::pair<Bytes, threshold::Signature>> items,
      RequestOptions opts = {});

  // -- Synchronous conveniences ---------------------------------------------

  bool verify_sync(const std::string& key, Bytes msg,
                   const threshold::Signature& sig, RequestOptions opts = {}) {
    return verify(key, std::move(msg), sig, opts).get();
  }
  /// Combine over the wire; RpcError when the committee cannot reach t+1
  /// valid shares. Cheater indices land in `cheaters` when given.
  threshold::Signature combine_sync(
      const std::string& key, Bytes msg,
      std::span<const threshold::PartialSignature> parts,
      std::vector<uint32_t>* cheaters = nullptr) {
    std::vector<Bytes> partials;
    partials.reserve(parts.size());
    for (const auto& p : parts) partials.push_back(p.serialize());
    CombineResult r =
        combine_bytes(key, std::move(msg), std::move(partials)).get();
    if (cheaters) *cheaters = r.cheaters;
    return threshold::Signature::deserialize(r.sig);
  }
  DaemonStats stats_sync() { return stats().get(); }
  HealthStats health_sync() { return health().get(); }
  obs::MetricsSnapshot metrics_sync(uint8_t flags = kMetricsTraces) {
    return metrics(flags).get();
  }
  std::string metrics_text_sync() { return metrics_text().get(); }

  /// True once the session can no longer carry requests: close() was
  /// called, the stream was poisoned by a protocol violation, or the
  /// connection died with auto_reconnect off. All requests fail fast
  /// afterwards.
  bool closed() const;

  ClientStats client_stats() const;

 private:
  using Clock = std::chrono::steady_clock;
  /// Encodes one attempt under its request id and remaining budget.
  using Encoder =
      std::function<Bytes(uint64_t id, std::optional<uint32_t> budget_ms)>;

  // Response handler for one outstanding request: exactly one of the two
  // callbacks runs, on a background thread.
  struct PendingHandler {
    std::function<void(ByteReader&)> ok;  // body reader -> resolve
    std::function<void(std::exception_ptr)> fail;
  };

  /// One request's whole retry lifecycle. The encode closure is kept so a
  /// retry can re-encode under a fresh id and an updated deadline budget.
  struct Call {
    Encoder encode;
    PendingHandler handler;
    Method method{};
    bool idempotent = false;
    /// Any byte of the current attempt reached send(); gates retry of
    /// non-idempotent methods after a lost connection.
    std::atomic<bool> written{false};
    uint32_t attempts = 0;  // sends so far + reconnect failures charged
    uint32_t max_attempts = 1;
    Clock::time_point deadline;  // max() = none
    Clock::time_point retry_at{};
  };
  using CallPtr = std::shared_ptr<Call>;

  void enqueue(Method m, bool idempotent, Encoder encode,
               PendingHandler handler, const RequestOptions& opts);
  /// The one call core behind every front. `decode` reads an OK body into
  /// a T, consuming it exactly (a throw there is a malformed response);
  /// `done` then runs with the value, or with the error on any failure —
  /// exactly once either way.
  template <class T>
  void call(Method m, bool idempotent, Encoder encode,
            std::function<T(ByteReader&)> decode,
            std::function<void(T*, std::exception_ptr)> done,
            const RequestOptions& opts);
  /// call() resolving a future.
  template <class T>
  std::future<T> ask(Method m, bool idempotent, Encoder encode,
                     std::function<T(ByteReader&)> decode,
                     const RequestOptions& opts);
  /// Registration helper shared by the register_* fronts (stamps the admin
  /// token into the request).
  std::future<bool> register_tenant(RegisterTenantRequest req);

  /// Encodes and writes one attempt of `call`, already registered in
  /// inflight_ under `id` against `epoch`. A send failure triggers
  /// session_death; an epoch mismatch means the session already died and
  /// rerouted the call.
  void send_call(const CallPtr& call, uint64_t id, uint64_t epoch);
  /// Connection `epoch` is dead: shut the socket, reroute retryable
  /// in-flight calls to waiting_, fail the rest. Idempotent per epoch.
  void session_death(uint64_t epoch, const char* why);
  /// The response stream can no longer be trusted: fail EVERYTHING and
  /// refuse all future requests.
  void poison(const char* why);
  /// Returns false when the stream is finished: poisoned, or `epoch` died
  /// under the reader (late frames on a dead epoch are dropped unread —
  /// their calls were already rerouted to waiting_ or failed).
  bool handle_response(const Bytes& frame, uint64_t epoch);
  void keeper_loop();
  void reader_loop();
  void read_session(int rfd, uint64_t epoch);
  void try_reconnect();
  /// Jittered backoff before attempt `attempts + 1`. Call with m_ held.
  std::chrono::milliseconds backoff_for(uint32_t attempts);

  ClientConfig cfg_;
  std::string host_;
  uint16_t port_ = 0;
  std::string admin_token_;  // set once, before registrations

  // All session state below m_; cv_ signals the keeper (work due), the
  // reader (reconnected), and close() (drained).
  mutable std::mutex m_;
  std::condition_variable cv_;
  int fd_ = -1;
  uint64_t epoch_ = 0;  // bumped per successful (re)connect
  bool connected_ = false;
  bool reader_parked_ = true;  // reader is between connections
  bool closing_ = false;       // close() entered: no new requests
  bool stopping_ = false;      // drain over: threads exit
  bool poisoned_ = false;
  std::unordered_map<uint64_t, CallPtr> inflight_;
  std::vector<CallPtr> waiting_;  // backoff / reconnect queue
  /// Ids failed locally (deadline) whose response may still arrive; the
  /// reader drops those instead of treating them as corruption.
  std::unordered_set<uint64_t> abandoned_;
  uint64_t next_id_ = 1;
  ClientStats stats_;
  Clock::time_point reconnect_at_{};
  std::chrono::milliseconds reconnect_backoff_{0};
  std::mt19937_64 rng_;  // backoff jitter; under m_

  // The write side: senders serialize on w_m_ and revalidate the epoch
  // AFTER acquiring it, so a frame can never hit a connection its request
  // was not registered against. wfd_/wepoch_ change only under w_m_.
  std::mutex w_m_;
  int wfd_ = -1;
  uint64_t wepoch_ = 0;

  std::thread keeper_;
  std::thread reader_;
};

}  // namespace bnr::rpc
