// The binary RPC wire protocol of the serving daemon. Design goals, in
// order: (1) a hostile peer must never be able to crash the daemon or drive
// an unbounded allocation — every length field is checked against the bytes
// actually present before anything is allocated, and any structural
// violation is a protocol error that closes the connection; (2) stateless
// request/response — the paper's signing is non-interactive, so one frame in
// and one frame out is a complete exchange, and a u64 request id lets
// responses complete OUT OF ORDER over a pipelined connection; (3) the
// encoding reuses the library's canonical ByteWriter/ByteReader primitives
// (big-endian, u32 length prefixes) so scheme objects cross the wire in
// exactly the bytes their serialize() methods already emit; (4) the
// protocol is SCHEME-AGNOSTIC: tenants register with a `SchemeId` and every
// signature / partial / public key is an opaque blob the daemon hands to
// that scheme's plugin — RO, DLIN, Agg, and BLS all ride the same five
// methods, and a new scheme needs no new wire code.
//
// Frame layout (both directions):
//
//   +----------------+---------------------------------------------+
//   | u32 length     |  payload (length bytes, <= max_frame)       |
//   +----------------+---------------------------------------------+
//
//   request payload:   u8 method | u64 request_id | [u32 budget_ms] | body
//   response payload:  u8 status | u64 request_id | status body
//
// The method byte's high bit (kMethodBudgetBit) flags an OPTIONAL u32
// deadline budget in milliseconds between the request id and the body: the
// client's remaining per-request budget at send time, letting the server
// shed a request whose budget is already spent BEFORE paying a pairing for
// it. Frames without the bit are exactly the pre-budget encoding, so old
// clients stay valid against new servers byte for byte.
//
// Method bodies (str = u32 len + bytes, blob = u32 len + bytes):
//
//   PING             --                          -> --
//   VERIFY           str key, blob msg, blob sig -> u8 accepted
//   BATCH_VERIFY     str key, u32 n, n x (blob msg, blob sig)
//                                                -> u32 n, n x u8 accepted
//   COMBINE          str key, blob msg, u32 n, n x blob partial
//                                                -> blob sig, u32 c, c x u32
//                                                   cheater indices
//   REGISTER_TENANT  str token, str key, u8 scheme_id, u8 flags, blob pk
//                    [flags bit0 (committee): u32 n, u32 t, n x blob vk]
//                                                -> u8 deduped
//   STATS            --                          -> DaemonStats (global u64
//                                                   fields + per-scheme rows)
//   HEALTH           --                          -> HealthStats (fixed u64
//                                                   overload counters)
//   METRICS          u8 flags                    -> flags bit0 (kMetricsText):
//                                                   blob of Prometheus text;
//                                                   else a structured
//                                                   MetricsSnapshot (named
//                                                   points + histograms +
//                                                   slow traces, see
//                                                   obs/metrics.hpp); flags
//                                                   bit1 includes the
//                                                   slow-trace ring
//
// REGISTER_TENANT is an ADMIN frame: when the daemon runs with an admin
// token, `token` must match (constant-time comparison server-side) or the
// request gets an attributable ERROR and counts as an auth failure.
//
// An ERROR response carries `str message` as its body regardless of method.
// BUSY and SHED responses carry the same `str message` body and make
// REJECTION attributable instead of a connection teardown: BUSY means the
// daemon declined the request before doing any work (in-flight cap, rate
// limit) and the client may retry after backoff; SHED means the request's
// own deadline budget was already spent when the daemon got to it, so a
// retry of the same budget is pointless.
// A frame that is oversized, truncated, carries an unknown method id, or
// whose body does not parse exactly (trailing bytes included) is a protocol
// violation: the peer is not confused, it is malformed or malicious, and the
// connection is closed without a response. An unknown SCHEME id, by
// contrast, is an attributable ERROR — the registry is extensible, and a
// client asking for a scheme this daemon does not serve is wrong, not
// malformed.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/serde.hpp"
#include "obs/metrics.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr::rpc {

/// Hard cap on one frame's payload. A BATCH_VERIFY of 4096 compressed
/// signatures is ~300KB; 1MiB leaves headroom without letting one connection
/// stage unbounded memory.
constexpr uint32_t kMaxFrameBytes = 1u << 20;

enum class Method : uint8_t {
  kPing = 1,
  kVerify = 2,
  kBatchVerify = 3,
  kCombine = 4,
  kRegisterTenant = 5,
  kStats = 6,
  kHealth = 7,
  kMetrics = 8,
};

/// METRICS request flags byte. Undefined bits are a protocol violation.
constexpr uint8_t kMetricsText = 0x01;    // respond with Prometheus text
constexpr uint8_t kMetricsTraces = 0x02;  // include the slow-trace ring

/// High bit of the request method byte: the header carries a u32 deadline
/// budget (milliseconds remaining) after the request id. Absent bit ==
/// pre-budget frame layout, so the extension is backward compatible.
constexpr uint8_t kMethodBudgetBit = 0x80;

enum class Status : uint8_t {
  kOk = 0,
  kError = 1,  // body: str message (unknown tenant, combine failure, ...)
  kBusy = 2,   // body: str message; admission control declined, retryable
  kShed = 3,   // body: str message; deadline budget spent, NOT retryable
};

/// REGISTER_TENANT flags byte. Undefined bits are a protocol violation.
constexpr uint8_t kRegisterCommittee = 0x01;  // body carries n/t/vks; COMBINE

/// Thrown by decoders on structural violations; the server closes the
/// connection, the client tears the session down.
struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Server-reported request failure (an ERROR response), surfaced through the
/// client library's futures.
struct RpcError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct RequestHeader {
  Method method{};
  uint64_t request_id = 0;
  /// Deadline budget in ms remaining at client send time; nullopt when the
  /// request carried none (no kMethodBudgetBit). 0 means already expired —
  /// the server sheds it without touching a service.
  std::optional<uint32_t> budget_ms;
};

struct ResponseHeader {
  Status status{};
  uint64_t request_id = 0;
};

struct VerifyRequest {
  std::string key;
  Bytes msg;
  Bytes sig;  // scheme-serialized signature (opaque to the wire layer)
};

struct BatchVerifyRequest {
  std::string key;
  std::vector<std::pair<Bytes, Bytes>> items;  // (msg, sig)
};

struct CombineRequest {
  std::string key;
  Bytes msg;
  std::vector<Bytes> partials;  // scheme-serialized partials, >= t+1
};

struct RegisterTenantRequest {
  std::string token;  // admin shared secret (empty when the daemon is open)
  std::string key;
  uint8_t scheme = 0;      // threshold::SchemeId on the wire
  bool committee = false;  // carries n/t/vks below; enables COMBINE
  Bytes pk;                // scheme-serialized public key
  uint32_t n = 0, t = 0;
  std::vector<Bytes> vks;  // scheme-serialized per-player verification keys
};

struct CombineResult {
  Bytes sig;  // scheme-serialized combined signature
  std::vector<uint32_t> cheaters;
};

/// One u64 counter of a stats frame as every renderer sees it: the member,
/// its Prometheus series name and its kind. Each stats struct below is
/// followed by its table, which lists every counter once, in WIRE order. The
/// STATS/HEALTH codecs, METRICS and the cluster rollup are loops over these
/// tables, so a counter is one struct field (appended at the END) plus one
/// row, and a field without a row fails to compile.
template <class S>
struct StatField {
  uint64_t S::*member;
  std::string_view metric;
  obs::MetricKind kind;
};

template <class S>
constexpr StatField<S> counter(uint64_t S::*m, std::string_view metric) {
  return {m, metric, obs::MetricKind::kCounter};
}
template <class S>
constexpr StatField<S> gauge(uint64_t S::*m, std::string_view metric) {
  return {m, metric, obs::MetricKind::kGauge};
}

/// No member and no series name twice: with the sizeof check beside each
/// table, every field then has exactly one row.
template <class S, size_t N>
consteval bool distinct_rows(const StatField<S> (&table)[N]) {
  for (size_t i = 0; i < N; ++i)
    for (size_t j = i + 1; j < N; ++j)
      if (table[i].member == table[j].member ||
          table[i].metric == table[j].metric)
        return false;
  return true;
}

/// One scheme's slice of the daemon's counters: the u8 scheme id, then the
/// counters of kSchemeRowFields. One STATS frame carries the exact identity
///   submitted == accepted + rejected + sheds + errors + in_progress
/// (snapshotted under ONE service lock, so it holds even mid-flight).
struct SchemeStatsRow {
  uint8_t scheme = 0;  // threshold::SchemeId
  uint64_t tenants = 0;
  uint64_t deduped = 0;          // registrations aliased onto a known pk
  uint64_t verify_submitted = 0;
  uint64_t verify_batches = 0;   // flush folds executed (one per scheme
                                 // per flush, across tenants)
  uint64_t verify_fallbacks = 0;
  uint64_t verify_accepted = 0;
  uint64_t verify_rejected = 0;
  uint64_t cache_lookups = 0;    // verify+combine groups routed via the cache
  uint64_t cache_misses = 0;     // ... that had to prepare
  uint64_t combines = 0;
  uint64_t verify_sheds = 0;        // in-service deadline sheds (submitted,
                                    // then dropped before their fold ran)
  uint64_t verify_errors = 0;       // completions by exception
  uint64_t verify_in_progress = 0;  // submitted, outcome not yet committed
};

/// METRICS labels every row's series `scheme="<name>"`.
inline constexpr StatField<SchemeStatsRow> kSchemeRowFields[] = {
    gauge(&SchemeStatsRow::tenants, "bnr_scheme_tenants"),
    counter(&SchemeStatsRow::deduped, "bnr_scheme_deduped_keys_total"),
    counter(&SchemeStatsRow::verify_submitted,
            "bnr_scheme_verify_submitted_total"),
    counter(&SchemeStatsRow::verify_batches, "bnr_scheme_verify_batches_total"),
    counter(&SchemeStatsRow::verify_fallbacks,
            "bnr_scheme_verify_fallbacks_total"),
    counter(&SchemeStatsRow::verify_accepted,
            "bnr_scheme_verify_accepted_total"),
    counter(&SchemeStatsRow::verify_rejected,
            "bnr_scheme_verify_rejected_total"),
    counter(&SchemeStatsRow::cache_lookups, "bnr_scheme_cache_lookups_total"),
    counter(&SchemeStatsRow::cache_misses, "bnr_scheme_cache_misses_total"),
    counter(&SchemeStatsRow::combines, "bnr_scheme_combines_total"),
    counter(&SchemeStatsRow::verify_sheds, "bnr_scheme_verify_sheds_total"),
    counter(&SchemeStatsRow::verify_errors, "bnr_scheme_verify_errors_total"),
    gauge(&SchemeStatsRow::verify_in_progress, "bnr_scheme_verify_in_progress"),
};
static_assert(sizeof(SchemeStatsRow) ==
              sizeof(uint64_t) * (1 + std::size(kSchemeRowFields)));
static_assert(distinct_rows(kSchemeRowFields));

/// One aggregate stats snapshot over the whole daemon: the global counters
/// of kDaemonStatsFields, then a row per scheme the registry serves. The
/// global verify/combine/dedup fields are the sums of the rows; cache_*
/// report the shared caches, which the rows break down by scheme via
/// service-observed lookups/misses.
struct DaemonStats {
  uint64_t tenants = 0;          // registered tenant key-ids
  uint64_t deduped_keys = 0;     // tenants sharing an already-known pk digest
  uint64_t connections = 0;      // LIFETIME accepts — never decremented
  uint64_t conns_rejected = 0;   // over the connection cap: accept-and-close
  uint64_t auth_failures = 0;    // ADMIN frames with a bad token
  uint64_t frames_in = 0;        // well-formed request frames handled
  uint64_t protocol_errors = 0;  // connections closed on malformed input
  uint64_t cache_hits = 0;       // shared verifier+combiner caches
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_resident_entries = 0;
  uint64_t cache_resident_bytes = 0;
  uint64_t verify_submitted = 0;
  uint64_t verify_batches = 0;
  uint64_t verify_fallbacks = 0;
  uint64_t verify_accepted = 0;
  uint64_t verify_rejected = 0;
  uint64_t combines = 0;
  uint64_t open_connections = 0;  // connections open RIGHT NOW (gauge)
  uint64_t verify_sheds = 0;        // in-service deadline sheds (submitted,
                                    // then dropped before their fold ran)
  uint64_t verify_errors = 0;       // verify completions by exception
  uint64_t verify_in_progress = 0;  // in the service, outcome uncommitted
  std::vector<SchemeStatsRow> schemes;

  /// The row for one scheme id (zeros when the daemon has no such scheme).
  SchemeStatsRow scheme_row(threshold::SchemeId id) const {
    for (const auto& r : schemes)
      if (r.scheme == static_cast<uint8_t>(id)) return r;
    return {};
  }
};

inline constexpr StatField<DaemonStats> kDaemonStatsFields[] = {
    gauge(&DaemonStats::tenants, "bnr_tenants"),
    counter(&DaemonStats::deduped_keys, "bnr_deduped_keys_total"),
    counter(&DaemonStats::connections, "bnr_connections_total"),
    counter(&DaemonStats::conns_rejected, "bnr_connections_rejected_total"),
    counter(&DaemonStats::auth_failures, "bnr_auth_failures_total"),
    counter(&DaemonStats::frames_in, "bnr_frames_in_total"),
    counter(&DaemonStats::protocol_errors, "bnr_protocol_errors_total"),
    counter(&DaemonStats::cache_hits, "bnr_cache_hits_total"),
    counter(&DaemonStats::cache_misses, "bnr_cache_misses_total"),
    counter(&DaemonStats::cache_evictions, "bnr_cache_evictions_total"),
    gauge(&DaemonStats::cache_resident_entries, "bnr_cache_resident_entries"),
    gauge(&DaemonStats::cache_resident_bytes, "bnr_cache_resident_bytes"),
    counter(&DaemonStats::verify_submitted, "bnr_verify_submitted_total"),
    counter(&DaemonStats::verify_batches, "bnr_verify_batches_total"),
    counter(&DaemonStats::verify_fallbacks, "bnr_verify_fallbacks_total"),
    counter(&DaemonStats::verify_accepted, "bnr_verify_accepted_total"),
    counter(&DaemonStats::verify_rejected, "bnr_verify_rejected_total"),
    counter(&DaemonStats::combines, "bnr_combines_total"),
    gauge(&DaemonStats::open_connections, "bnr_open_connections"),
    counter(&DaemonStats::verify_sheds, "bnr_verify_sheds_total"),
    counter(&DaemonStats::verify_errors, "bnr_verify_errors_total"),
    gauge(&DaemonStats::verify_in_progress, "bnr_verify_in_progress"),
};
static_assert(sizeof(DaemonStats) ==
              sizeof(uint64_t) * std::size(kDaemonStatsFields) +
                  sizeof(std::vector<SchemeStatsRow>));
static_assert(distinct_rows(kDaemonStatsFields));

/// HEALTH response body: the daemon's overload counters. Everything an
/// operator (or the chaos suite's exact-accounting assertions) needs to
/// attribute rejected load: how much is in flight right now, how deep the
/// service queue is, and how many requests each admission-control layer
/// turned away.
struct HealthStats {
  uint64_t in_flight = 0;       // dispatched into the services, unanswered
  uint64_t inflight_cap = 0;    // configured cap (0 = uncapped)
  uint64_t queue_depth = 0;     // verify-service requests pending a flush
  uint64_t busy_inflight = 0;   // BUSY: global in-flight cap
  uint64_t busy_ratelimit = 0;  // BUSY: per-connection token bucket
  uint64_t shed_arrival = 0;    // SHED: budget already spent at decode time
  uint64_t shed_in_service = 0; // SHED: budget expired before its fold ran
};

inline constexpr StatField<HealthStats> kHealthFields[] = {
    gauge(&HealthStats::in_flight, "bnr_in_flight"),
    gauge(&HealthStats::inflight_cap, "bnr_in_flight_cap"),
    gauge(&HealthStats::queue_depth, "bnr_queue_depth"),
    counter(&HealthStats::busy_inflight, "bnr_busy_inflight_total"),
    counter(&HealthStats::busy_ratelimit, "bnr_busy_ratelimit_total"),
    counter(&HealthStats::shed_arrival, "bnr_shed_arrival_total"),
    counter(&HealthStats::shed_in_service, "bnr_shed_in_service_total"),
};
static_assert(sizeof(HealthStats) ==
              sizeof(uint64_t) * std::size(kHealthFields));
static_assert(distinct_rows(kHealthFields));

// ---------------------------------------------------------------------------
// Framing

/// Appends `u32 len | payload` to `out`. Payloads above `max_frame` are a
/// caller bug (the encoders below cannot produce one from bounded inputs
/// without the caller passing oversized blobs), reported as ProtocolError.
inline void append_frame(Bytes& out, std::span<const uint8_t> payload,
                         uint32_t max_frame = kMaxFrameBytes) {
  if (payload.size() > max_frame)
    throw ProtocolError("frame payload exceeds max_frame");
  append_u32_be(out, static_cast<uint32_t>(payload.size()));
  append(out, payload);
}

/// Incremental deframer: feed() raw socket bytes, next() extracts complete
/// frames. A declared length above max_frame is reported immediately as
/// kTooBig — BEFORE any buffering of the oversized body — so a hostile
/// length prefix cannot stage memory.
class FrameBuffer {
 public:
  explicit FrameBuffer(uint32_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  void feed(std::span<const uint8_t> data) { append(buf_, data); }

  enum class Result { kFrame, kNeedMore, kTooBig };

  /// Extracts the next complete frame payload into `out`.
  Result next(Bytes& out) {
    if (buf_.size() - pos_ < 4) return compact(Result::kNeedMore);
    uint32_t len = (uint32_t(buf_[pos_]) << 24) |
                   (uint32_t(buf_[pos_ + 1]) << 16) |
                   (uint32_t(buf_[pos_ + 2]) << 8) | uint32_t(buf_[pos_ + 3]);
    if (len > max_frame_) return Result::kTooBig;
    if (buf_.size() - pos_ - 4 < len) return compact(Result::kNeedMore);
    out.assign(buf_.begin() + pos_ + 4, buf_.begin() + pos_ + 4 + len);
    pos_ += 4 + size_t(len);
    return Result::kFrame;
  }

  size_t buffered() const { return buf_.size() - pos_; }

 private:
  Result compact(Result r) {
    // Reclaim consumed prefix once it dominates the buffer, so a long-lived
    // connection's read buffer stays proportional to its unparsed bytes.
    if (pos_ > 4096 && pos_ > buf_.size() / 2) {
      buf_.erase(buf_.begin(), buf_.begin() + pos_);
      pos_ = 0;
    }
    return r;
  }

  uint32_t max_frame_;
  Bytes buf_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Encoding (writers never fail; size discipline is the caller's via
// append_frame)

inline void encode_request_header(ByteWriter& w, Method m, uint64_t id,
                                  std::optional<uint32_t> budget_ms = {}) {
  w.u8(static_cast<uint8_t>(m) | (budget_ms ? kMethodBudgetBit : 0));
  w.u64(id);
  if (budget_ms) w.u32(*budget_ms);
}

inline void encode_response_header(ByteWriter& w, Status s, uint64_t id) {
  w.u8(static_cast<uint8_t>(s));
  w.u64(id);
}

inline Bytes encode_verify(uint64_t id, const VerifyRequest& r,
                           std::optional<uint32_t> budget_ms = {}) {
  ByteWriter w;
  encode_request_header(w, Method::kVerify, id, budget_ms);
  w.str(r.key);
  w.blob(r.msg);
  w.blob(r.sig);
  return w.take();
}

inline Bytes encode_batch_verify(uint64_t id, const BatchVerifyRequest& r,
                                 std::optional<uint32_t> budget_ms = {}) {
  ByteWriter w;
  encode_request_header(w, Method::kBatchVerify, id, budget_ms);
  w.str(r.key);
  w.u32(static_cast<uint32_t>(r.items.size()));
  for (const auto& [msg, sig] : r.items) {
    w.blob(msg);
    w.blob(sig);
  }
  return w.take();
}

inline Bytes encode_combine(uint64_t id, const CombineRequest& r,
                            std::optional<uint32_t> budget_ms = {}) {
  ByteWriter w;
  encode_request_header(w, Method::kCombine, id, budget_ms);
  w.str(r.key);
  w.blob(r.msg);
  w.u32(static_cast<uint32_t>(r.partials.size()));
  for (const auto& p : r.partials) w.blob(p);
  return w.take();
}

inline Bytes encode_register(uint64_t id, const RegisterTenantRequest& r) {
  ByteWriter w;
  encode_request_header(w, Method::kRegisterTenant, id);
  w.str(r.token);
  w.str(r.key);
  w.u8(r.scheme);
  w.u8(r.committee ? kRegisterCommittee : 0);
  w.blob(r.pk);
  if (r.committee) {
    w.u32(r.n);
    w.u32(r.t);
    w.u32(static_cast<uint32_t>(r.vks.size()));
    for (const auto& vk : r.vks) w.blob(vk);
  }
  return w.take();
}

inline Bytes encode_empty_request(Method m, uint64_t id,
                                  std::optional<uint32_t> budget_ms = {}) {
  ByteWriter w;
  encode_request_header(w, m, id, budget_ms);
  return w.take();
}

inline Bytes encode_ok(uint64_t id, std::span<const uint8_t> body = {}) {
  ByteWriter w;
  encode_response_header(w, Status::kOk, id);
  w.raw(body);
  return w.take();
}

inline Bytes encode_error(uint64_t id, std::string_view message) {
  ByteWriter w;
  encode_response_header(w, Status::kError, id);
  w.str(message);
  return w.take();
}

/// BUSY/SHED rejections share the ERROR body shape (str message); only the
/// status byte differs, which is what lets the client map them onto distinct
/// retry decisions without a second parse.
inline Bytes encode_rejection(uint64_t id, Status s, std::string_view message) {
  ByteWriter w;
  encode_response_header(w, s, id);
  w.str(message);
  return w.take();
}

inline Bytes encode_combine_result(const CombineResult& r) {
  ByteWriter w;
  w.blob(r.sig);
  w.u32(static_cast<uint32_t>(r.cheaters.size()));
  for (uint32_t c : r.cheaters) w.u32(c);
  return w.take();
}

inline Bytes encode_stats(const DaemonStats& s) {
  ByteWriter w;
  for (const auto& f : kDaemonStatsFields) w.u64(s.*f.member);
  w.u32(static_cast<uint32_t>(s.schemes.size()));
  for (const auto& r : s.schemes) {
    w.u8(r.scheme);
    for (const auto& f : kSchemeRowFields) w.u64(r.*f.member);
  }
  return w.take();
}

inline Bytes encode_metrics_request(uint64_t id, uint8_t flags,
                                    std::optional<uint32_t> budget_ms = {}) {
  ByteWriter w;
  encode_request_header(w, Method::kMetrics, id, budget_ms);
  w.u8(flags);
  return w.take();
}

/// Structured METRICS response body. Histograms go over the wire SPARSELY
/// (only non-zero buckets); the layout is a pure function of the value, so
/// sparse entries from any node merge into any dense snapshot.
inline Bytes encode_metrics_snapshot(const obs::MetricsSnapshot& m) {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(m.points.size()));
  for (const auto& p : m.points) {
    w.str(p.name);
    w.str(p.labels);
    w.u8(static_cast<uint8_t>(p.kind));
    w.u64(p.value);
  }
  w.u32(static_cast<uint32_t>(m.histograms.size()));
  for (const auto& h : m.histograms) {
    w.str(h.name);
    w.str(h.labels);
    w.u64(h.snap.count);
    w.u64(h.snap.sum);
    w.u64(h.snap.max);
    uint32_t nnz = 0;
    for (uint32_t i = 0; i < uint32_t(h.snap.buckets.size()); ++i)
      if (h.snap.buckets[i]) ++nnz;
    w.u32(nnz);
    for (uint32_t i = 0; i < uint32_t(h.snap.buckets.size()); ++i) {
      if (!h.snap.buckets[i]) continue;
      w.u32(i);
      w.u64(h.snap.buckets[i]);
    }
  }
  w.u32(static_cast<uint32_t>(m.slow_traces.size()));
  for (const auto& t : m.slow_traces) {
    w.u64(t.request_id);
    w.u8(t.method);
    w.u64(t.total_ns);
    w.u8(static_cast<uint8_t>(obs::kStageCount));
    for (uint64_t v : t.stage_ns) w.u64(v);
  }
  return w.take();
}

inline Bytes encode_health(const HealthStats& h) {
  ByteWriter w;
  for (const auto& f : kHealthFields) w.u64(h.*f.member);
  return w.take();
}

// ---------------------------------------------------------------------------
// Decoding. Every decoder consumes from a ByteReader positioned after the
// header and throws (out_of_range from the reader, ProtocolError for
// semantic violations) on malformed input; the caller treats any throw as a
// protocol violation. Element counts are bounded by the bytes actually
// remaining (ByteReader::count) before anything is reserved.

inline RequestHeader decode_request_header(ByteReader& rd) {
  RequestHeader h;
  uint8_t raw = rd.u8();
  uint8_t m = raw & ~kMethodBudgetBit;
  if (m < uint8_t(Method::kPing) || m > uint8_t(Method::kMetrics))
    throw ProtocolError("unknown method id " + std::to_string(m));
  h.method = static_cast<Method>(m);
  h.request_id = rd.u64();
  if (raw & kMethodBudgetBit) h.budget_ms = rd.u32();
  return h;
}

inline ResponseHeader decode_response_header(ByteReader& rd) {
  ResponseHeader h;
  uint8_t s = rd.u8();
  if (s > uint8_t(Status::kShed))
    throw ProtocolError("unknown status " + std::to_string(s));
  h.status = static_cast<Status>(s);
  h.request_id = rd.u64();
  return h;
}

inline void expect_frame_done(const ByteReader& rd, const char* what) {
  if (!rd.empty())
    throw ProtocolError(std::string(what) + ": trailing bytes in frame");
}

inline std::string decode_str(ByteReader& rd) {
  Bytes b = rd.blob();
  return std::string(b.begin(), b.end());
}

inline VerifyRequest decode_verify(ByteReader& rd) {
  VerifyRequest r;
  r.key = decode_str(rd);
  r.msg = rd.blob();
  r.sig = rd.blob();
  expect_frame_done(rd, "VERIFY");
  return r;
}

inline BatchVerifyRequest decode_batch_verify(ByteReader& rd) {
  BatchVerifyRequest r;
  r.key = decode_str(rd);
  uint32_t n = rd.count(8);  // each item >= two u32 length prefixes
  r.items.reserve(n);
  for (uint32_t j = 0; j < n; ++j) {
    Bytes msg = rd.blob();
    Bytes sig = rd.blob();
    r.items.emplace_back(std::move(msg), std::move(sig));
  }
  expect_frame_done(rd, "BATCH_VERIFY");
  return r;
}

inline CombineRequest decode_combine(ByteReader& rd) {
  CombineRequest r;
  r.key = decode_str(rd);
  r.msg = rd.blob();
  uint32_t n = rd.count(4);
  r.partials.reserve(n);
  for (uint32_t j = 0; j < n; ++j) r.partials.push_back(rd.blob());
  expect_frame_done(rd, "COMBINE");
  return r;
}

inline RegisterTenantRequest decode_register(ByteReader& rd) {
  RegisterTenantRequest r;
  r.token = decode_str(rd);
  r.key = decode_str(rd);
  r.scheme = rd.u8();  // validated against the REGISTRY, not the wire layer
  uint8_t flags = rd.u8();
  if (flags & ~kRegisterCommittee)
    throw ProtocolError("REGISTER: undefined flag bits " +
                        std::to_string(flags));
  r.committee = (flags & kRegisterCommittee) != 0;
  r.pk = rd.blob();
  if (r.committee) {
    r.n = rd.u32();
    r.t = rd.u32();
    uint32_t vks = rd.count(4);
    if (vks != r.n) throw ProtocolError("REGISTER: vk count != n");
    // t >= n (not t+1 > n): t = UINT32_MAX must not wrap past the check.
    if (r.t >= r.n) throw ProtocolError("REGISTER: threshold t must be < n");
    r.vks.reserve(vks);
    for (uint32_t j = 0; j < vks; ++j) r.vks.push_back(rd.blob());
  }
  expect_frame_done(rd, "REGISTER_TENANT");
  return r;
}

inline CombineResult decode_combine_result(ByteReader& rd) {
  CombineResult r;
  r.sig = rd.blob();
  uint32_t n = rd.count(4);
  r.cheaters.reserve(n);
  for (uint32_t j = 0; j < n; ++j) r.cheaters.push_back(rd.u32());
  return r;
}

inline HealthStats decode_health(ByteReader& rd) {
  HealthStats h;
  for (const auto& f : kHealthFields) h.*f.member = rd.u64();
  return h;
}

inline DaemonStats decode_stats(ByteReader& rd) {
  DaemonStats s;
  for (const auto& f : kDaemonStatsFields) s.*f.member = rd.u64();
  // A row is the u8 scheme id plus its u64 counters.
  uint32_t rows = rd.count(1 + sizeof(uint64_t) * std::size(kSchemeRowFields));
  s.schemes.reserve(rows);
  for (uint32_t j = 0; j < rows; ++j) {
    SchemeStatsRow r;
    r.scheme = rd.u8();
    for (const auto& f : kSchemeRowFields) r.*f.member = rd.u64();
    s.schemes.push_back(r);
  }
  return s;
}

inline obs::MetricsSnapshot decode_metrics_snapshot(ByteReader& rd) {
  obs::MetricsSnapshot m;
  uint32_t npoints = rd.count(17);  // 2 empty strs + kind + u64 value
  m.points.reserve(npoints);
  for (uint32_t i = 0; i < npoints; ++i) {
    obs::MetricPoint p;
    p.name = decode_str(rd);
    p.labels = decode_str(rd);
    uint8_t kind = rd.u8();
    if (kind > uint8_t(obs::MetricKind::kGauge))
      throw ProtocolError("METRICS: unknown point kind");
    p.kind = static_cast<obs::MetricKind>(kind);
    p.value = rd.u64();
    m.points.push_back(std::move(p));
  }
  uint32_t nhists = rd.count(36);  // 2 strs + count/sum/max + nnz
  m.histograms.reserve(nhists);
  for (uint32_t i = 0; i < nhists; ++i) {
    obs::MetricHistogram h;
    h.name = decode_str(rd);
    h.labels = decode_str(rd);
    h.snap.count = rd.u64();
    h.snap.sum = rd.u64();
    h.snap.max = rd.u64();
    uint32_t nnz = rd.count(12);  // u32 idx + u64 count
    if (nnz) h.snap.buckets.resize(obs::kBucketCount);
    for (uint32_t j = 0; j < nnz; ++j) {
      uint32_t idx = rd.u32();
      if (idx >= obs::kBucketCount)
        throw ProtocolError("METRICS: bucket index out of range");
      h.snap.buckets[idx] = rd.u64();
    }
    m.histograms.push_back(std::move(h));
  }
  uint32_t ntraces = rd.count(18);  // id + method + total + stage count
  m.slow_traces.reserve(ntraces);
  for (uint32_t i = 0; i < ntraces; ++i) {
    obs::TraceRecord t;
    t.request_id = rd.u64();
    t.method = rd.u8();
    t.total_ns = rd.u64();
    uint8_t stages = rd.u8();
    if (stages > 16) throw ProtocolError("METRICS: trace stage count");
    for (uint8_t j = 0; j < stages; ++j) {
      uint64_t v = rd.u64();
      if (j < obs::kStageCount) t.stage_ns[j] = v;
    }
    m.slow_traces.push_back(t);
  }
  return m;
}

}  // namespace bnr::rpc
