// Shared pieces of the service benchmark: clocks and process counters, the
// result line, closed-loop slice accounting, the span recorder of traced
// runs, and the in-process daemon every workload drives over loopback.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rpc/rpc_server.hpp"
#include "service/thread_pool.hpp"

namespace sb {

using Clock = std::chrono::steady_clock;

/// Label both the daemon and the load generator derive SystemParams from.
inline constexpr const char* kParamsLabel = "servicebench/v1";

double seconds_between(Clock::time_point a, Clock::time_point b);
/// Process CPU time (user + sys, every thread) in seconds.
double cpu_seconds();
/// Peak resident set of the process in MiB.
double rss_peak_mb();

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty vector.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports; print_result writes it as the last stdout line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check and says which on stderr.
  void wrong(const std::string& what);
};

void print_result(const RunResult& r);

/// Closed-loop accounting over fixed-work slices: every `per_slice`
/// completions close one slice with its wall and process-CPU time.
/// Thread-safe (completions arrive on the client's reader thread).
class SliceClock {
 public:
  struct Slice {
    double wall_s = 0, cpu_s = 0;
    uint64_t ops = 0;
  };

  explicit SliceClock(uint64_t per_slice) : per_(per_slice) {}
  void start();
  void complete(uint64_t n = 1);
  uint64_t completed() const;
  std::vector<Slice> slices() const;

 private:
  mutable std::mutex m_;
  uint64_t per_;
  uint64_t done_ = 0, in_slice_ = 0;
  Clock::time_point t0_{};
  double cpu0_ = 0;
  std::vector<Slice> slices_;
};

/// Throughput and CPU per operation from the faster half of the slices.
/// Host interference only ever slows a slice, so the faster half estimates
/// the program's own speed and the slow spells drop out (Chen & Revels,
/// arXiv:1608.04295).
struct Throughput {
  double ops_per_s = 0;
  double cpu_ms_per_op = 0;
  size_t slices = 0;
};
Throughput fast_half(std::vector<SliceClock::Slice> slices);

/// Spans of a traced run: name ("layer.what"), start, end, parent, request
/// id. Kept in memory; summarised when the run ends. Thread-safe.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0, end_ns = -1;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  explicit SpanRecorder(bool on) : on_(on) {}

  /// Opens a span and returns its id (-1 when tracing is off).
  int64_t open(std::string name, int64_t parent = -1, uint64_t request = 0);
  void close(int64_t id);
  /// A span whose interval was measured elsewhere.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           int64_t parent = -1, uint64_t request = 0);

  /// Self time per layer (the part of "layer.what" before the dot): each
  /// span's duration minus the union of its children's intervals, summed.
  struct LayerTime {
    std::string layer;
    double self_s = 0;
  };
  std::vector<LayerTime> self_by_layer() const;
  /// Durations (seconds) of every closed span named exactly `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Sum of the durations of root spans (no parent).
  double root_seconds() const;

 private:
  int64_t now_ns() const;

  bool on_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, std::string name, int64_t parent = -1,
         uint64_t request = 0)
      : rec_(rec), id_(rec.open(std::move(name), parent, request)) {}
  ~Scoped() { rec_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int64_t id_;
};

/// The serving daemon in this process on an ephemeral loopback port: two
/// pool workers and one IO loop, so that with the one generating thread no
/// more threads do work than the host has cores.
class Daemon {
 public:
  explicit Daemon(size_t cache_bytes);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return server_->port(); }
  bnr::rpc::RpcServer& server() { return *server_; }
  bnr::service::ThreadPool& pool() { return pool_; }

 private:
  bnr::service::ThreadPool pool_{2};
  std::unique_ptr<bnr::rpc::RpcServer> server_;
  std::thread serving_;
};

}  // namespace sb
