#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

namespace sb {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(q * double(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

void RunResult::wrong(const std::string& what) {
  if (correct) fprintf(stderr, "servicebench: WRONG ANSWER: %s\n", what.c_str());
  correct = false;
}

void print_result(const RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    snprintf(num, sizeof num, "%.17g", r.metrics[i].value);
    s += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + num +
         ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  s += "}}";
  fflush(stderr);
  printf("%s\n", s.c_str());
  fflush(stdout);
}

// ---------------------------------------------------------------------------

void SliceClock::start() {
  std::lock_guard<std::mutex> l(m_);
  t0_ = Clock::now();
  cpu0_ = cpu_seconds();
}

void SliceClock::complete(uint64_t n) {
  std::lock_guard<std::mutex> l(m_);
  done_ += n;
  in_slice_ += n;
  if (in_slice_ < per_) return;
  auto t = Clock::now();
  double c = cpu_seconds();
  slices_.push_back({seconds_between(t0_, t), c - cpu0_, in_slice_});
  t0_ = t;
  cpu0_ = c;
  in_slice_ = 0;
}

uint64_t SliceClock::completed() const {
  std::lock_guard<std::mutex> l(m_);
  return done_;
}

std::vector<SliceClock::Slice> SliceClock::slices() const {
  std::lock_guard<std::mutex> l(m_);
  return slices_;
}

Throughput fast_half(std::vector<SliceClock::Slice> slices) {
  Throughput t;
  if (slices.empty()) return t;
  std::sort(slices.begin(), slices.end(), [](const auto& a, const auto& b) {
    return double(a.ops) / a.wall_s > double(b.ops) / b.wall_s;
  });
  size_t keep = std::max<size_t>(1, slices.size() / 2);
  double wall = 0, cpu = 0, ops = 0;
  for (size_t i = 0; i < keep; ++i) {
    wall += slices[i].wall_s;
    cpu += slices[i].cpu_s;
    ops += double(slices[i].ops);
  }
  t.ops_per_s = ops / wall;
  t.cpu_ms_per_op = cpu * 1e3 / ops;
  t.slices = slices.size();
  return t;
}

// ---------------------------------------------------------------------------

int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t SpanRecorder::open(std::string name, int64_t parent,
                           uint64_t request) {
  if (!on_) return -1;
  int64_t t = now_ns();
  std::lock_guard<std::mutex> l(m_);
  spans_.push_back({std::move(name), t, -1, parent, request});
  return int64_t(spans_.size()) - 1;
}

void SpanRecorder::close(int64_t id) {
  if (id < 0) return;
  int64_t t = now_ns();
  std::lock_guard<std::mutex> l(m_);
  spans_[size_t(id)].end_ns = t;
}

void SpanRecorder::add(std::string name, Clock::time_point start,
                       Clock::time_point end, int64_t parent,
                       uint64_t request) {
  if (!on_) return;
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> l(m_);
  spans_.push_back({std::move(name), ns(start), ns(end), parent, request});
}

std::vector<SpanRecorder::LayerTime> SpanRecorder::self_by_layer() const {
  std::lock_guard<std::mutex> l(m_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[size_t(spans_[i].parent)].push_back(i);
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      const Span& k = spans_[c];
      if (k.end_ns < k.start_ns) continue;
      iv.emplace_back(std::max(k.start_ns, s.start_ns),
                      std::min(k.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_s = 0, cur_e = -1;
    for (auto [a, b] : iv) {
      if (b <= a) continue;
      if (a > cur_e) {
        if (cur_e > cur_s) covered += cur_e - cur_s;
        cur_s = a;
        cur_e = b;
      } else {
        cur_e = std::max(cur_e, b);
      }
    }
    if (cur_e > cur_s) covered += cur_e - cur_s;
    std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += double(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  std::vector<LayerTime> out;
  for (auto& [k, v] : self) out.push_back({k, v});
  return out;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::lock_guard<std::mutex> l(m_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name && s.end_ns >= s.start_ns)
      out.push_back(double(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

double SpanRecorder::root_seconds() const {
  std::lock_guard<std::mutex> l(m_);
  double total = 0;
  for (const auto& s : spans_)
    if (s.parent < 0 && s.end_ns >= s.start_ns)
      total += double(s.end_ns - s.start_ns) * 1e-9;
  return total;
}

// ---------------------------------------------------------------------------

Daemon::Daemon(size_t cache_bytes) {
  bnr::rpc::ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = kParamsLabel;
  cfg.io_threads = 1;
  cfg.cache_bytes = cache_bytes;
  server_ = std::make_unique<bnr::rpc::RpcServer>(cfg, pool_);
  serving_ = std::thread([this] { server_->run(); });
}

Daemon::~Daemon() {
  server_->stop();
  serving_.join();
  server_.reset();
}

}  // namespace sb
