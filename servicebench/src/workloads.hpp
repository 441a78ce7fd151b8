// The three workloads and the traced run. Each workload drives the daemon
// through the public wire API from one generating thread over one
// connection, and checks every answer with the oracles.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "rpc/rpc_client.hpp"
#include "threshold/scheme_api.hpp"

namespace sb {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// The latency phase's samples (ms) and how late the generator ran.
struct LatencyPhase {
  std::vector<double> ms;
  double max_lag_ms = 0;

  void add(double sample_ms) {
    std::lock_guard<std::mutex> l(m);
    ms.push_back(sample_ms);
  }

 private:
  std::mutex m;
};

/// Daemon-side crypto of one operation, replayed in-process through the
/// public layer functions (see layers.hpp).
class Workload {
 public:
  explicit Workload(uint64_t seed);
  virtual ~Workload() = default;

  /// Keys, pre-signed inputs, daemon start, registration and warm-up.
  virtual void setup() = 0;
  /// Closed loop for `seconds`; completions are counted in `slices`.
  virtual void closed_loop(double seconds, SliceClock& slices,
                           SpanRecorder* spans) = 0;
  /// False when the workload has no fixed-rate open loop; its latency then
  /// comes from the closed loop's per-operation times.
  virtual bool has_open_loop() const { return true; }
  virtual void open_loop(double seconds, LatencyPhase& out,
                         SpanRecorder* spans) = 0;
  /// Per-operation latencies of the closed loop (committee-onboard).
  virtual std::vector<double> closed_latencies_ms() const { return {}; }
  /// Completions per closed-loop slice (fixed work per slice).
  virtual uint64_t slice_ops() const = 0;
  /// Oracle checks of every recorded answer (after the measurement).
  virtual void check(RunResult& r) = 0;

  // -- traced run ------------------------------------------------------------
  /// `n` operations one at a time, each a root span "op" whose children
  /// are the client-side crypto and the rpc.* calls; then the daemon-side
  /// crypto of the same operations is replayed into `replay`.
  virtual void sample(size_t n, SpanRecorder& ops, SpanRecorder& replay) = 0;
  /// Exercises the daemon methods the workload does not use (VERIFY or
  /// COMBINE), so every service metric is measured on every workload.
  virtual void probe() = 0;
  /// A committee of the workload's shape, for the layer measurements.
  virtual const KeyMaterial& committee() const = 0;
  /// Wall time of the setup's key generation and how many DKGs it ran.
  double setup_dkg_s = 0;
  size_t setup_dkgs = 0;

  bnr::rpc::RpcClient& client() { return *client_; }
  Daemon& daemon() { return *daemon_; }
  const RoScheme& scheme() const { return scheme_; }
  const bnr::threshold::Scheme& plugin() const { return *plugin_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_.load(); }

 protected:
  /// Starts the daemon and connects the one client.
  void start_daemon(size_t cache_bytes);
  /// A wrong answer seen on any thread; reported by check().
  void wrong(const std::string& what);

  uint64_t seed_;
  RoScheme scheme_;
  bnr::threshold::SchemeRegistry registry_;
  const bnr::threshold::Scheme* plugin_ = nullptr;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<bnr::rpc::RpcClient> client_;
  uint64_t attempted_ = 0;
  std::atomic<uint64_t> failed_{0};
  std::mutex wrong_m_;  // guards wrong_; read by check() after the loops
  std::vector<std::string> wrong_;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed);
bool known_workload(const std::string& name);

RunResult run(const Options& o);

}  // namespace sb
