#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

namespace pb {

namespace {
const std::int64_t kProcessStart = nowNs();
}

std::int64_t processStartNs() { return kProcessStart; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = mix64(seed) ^ mix64(stream * 0x632be59bd9b4e019ULL + 1);
  for (auto& s : s_) {
    x = mix64(x);
    s = x;
  }
}

std::uint64_t Rng::next() {
  const auto rotl = [](std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Zipf::Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  double zetan = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
}

std::uint64_t Zipf::rank(Rng& rng) const {
  const double u = rng.unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto r = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(r, n_ - 1);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

namespace {
using sftree::obs::LogHistogram;

std::vector<double> bucketDelta(const LogHistogram& before,
                                const LogHistogram& after) {
  std::vector<double> d(LogHistogram::kBucketCount);
  for (std::size_t b = 0; b < d.size(); ++b) {
    const auto a = after.bucketCount(b), o = before.bucketCount(b);
    d[b] = a > o ? static_cast<double>(a - o) : 0.0;
  }
  return d;
}
}  // namespace

double histDeltaQuantile(const LogHistogram& before, const LogHistogram& after,
                         double q) {
  const std::vector<double> d = bucketDelta(before, after);
  const double n = std::accumulate(d.begin(), d.end(), 0.0);
  if (n == 0.0) return 0.0;
  const double target = q * n;
  double cum = 0.0;
  for (std::size_t b = 0; b < d.size(); ++b) {
    if (d[b] == 0.0) continue;
    if (cum + d[b] >= target) {
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(LogHistogram::bucketUpperBound(b - 1)) +
                       1.0;
      const double hi = std::min(
          static_cast<double>(LogHistogram::bucketUpperBound(b)),
          static_cast<double>(after.max()));
      return lo + (std::max(hi, lo) - lo) * std::clamp((target - cum) / d[b],
                                                       0.0, 1.0);
    }
    cum += d[b];
  }
  return static_cast<double>(after.max());
}

double histDeltaMean(const LogHistogram& before, const LogHistogram& after) {
  const double n = static_cast<double>(after.count() - before.count());
  return n <= 0.0 ? 0.0
                  : static_cast<double>(after.sum() - before.sum()) / n;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

StmDelta stmDelta(const sftree::stm::ThreadStats& b,
                  const sftree::stm::ThreadStats& a) {
  using sftree::obs::AbortCause;
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  StmDelta s;
  s.commits = d(a.commits, b.commits);
  s.aborts = d(a.aborts, b.aborts);
  s.roCommits = d(a.roCommits, b.roCommits);
  s.reads = d(a.reads, b.reads);
  s.writes = d(a.writes, b.writes);
  s.restartsRoExt = d(a.abortsFor(AbortCause::kRoSnapshotExtension),
                      b.abortsFor(AbortCause::kRoSnapshotExtension));
  s.restartsRoPromo = d(a.abortsFor(AbortCause::kRoPromotion),
                        b.abortsFor(AbortCause::kRoPromotion));
  s.abortReadValidation = d(a.abortsFor(AbortCause::kReadValidation),
                            b.abortsFor(AbortCause::kReadValidation));
  s.abortLockConflict = d(a.abortsFor(AbortCause::kLockConflict),
                          b.abortsFor(AbortCause::kLockConflict));
  s.abortElasticValidation = d(a.abortsFor(AbortCause::kElasticValidation),
                               b.abortsFor(AbortCause::kElasticValidation));
  s.abortCrossDomainJoin = d(a.abortsFor(AbortCause::kCrossDomainJoin),
                             b.abortsFor(AbortCause::kCrossDomainJoin));
  s.ops = d(a.ops, b.ops);
  s.opReads = d(a.totalOpReads, b.totalOpReads);
  s.commitNsP50 = histDeltaQuantile(b.txCommitNs, a.txCommitNs, 0.50);
  s.commitNsP99 = histDeltaQuantile(b.txCommitNs, a.txCommitNs, 0.99);
  return s;
}

SpanLog::SpanLog(int threads, std::uint64_t stride)
    : stride_(std::max<std::uint64_t>(stride, 1)),
      perThread_(static_cast<std::size_t>(threads)) {}

void SpanLog::record(int thread, const char* name, std::uint64_t id,
                     std::uint64_t parent, std::int64_t start,
                     std::int64_t end) {
  perThread_[static_cast<std::size_t>(thread)].push_back(
      Span{name, id, parent, start, end});
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& buf : perThread_) {
    for (const Span& s : buf) {
      if (name == s.name) out.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::size_t n = 0;
  for (const auto& buf : perThread_) n += buf.size();
  return n;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[256];
  for (std::size_t t = 0; t < perThread_.size(); ++t) {
    for (const Span& s : perThread_[t]) {
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu}}",
                    first ? "" : ",", s.name, t,
                    static_cast<double>(s.start - processStartNs()) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& perLayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"trees.insert_ns", "ns"},
      {"trees.erase_ns", "ns"},
      {"trees.contains_ns", "ns"},
      {"trees.reads_per_op", "reads/op"},
      {"trees.height_over_log2n", "ratio"},
      {"trees.dead_node_share", "ratio"},
      {"trees.rotations_per_kupdate", "1/kupdate"},
      {"trees.removals_per_kupdate", "1/kupdate"},
      {"trees.maint_visits_per_update", "nodes/update"},
      {"trees.maint_pass_us_p99", "us"},
      {"trees.vq_max_depth", "count"},
      {"trees.vq_overflows", "count"},
      {"stm.useful_ratio", "ratio"},
      {"stm.aborts.read_validation", "count"},
      {"stm.aborts.lock_conflict", "count"},
      {"stm.aborts.elastic_validation", "count"},
      {"stm.aborts.cross_domain_join", "count"},
      {"stm.restarts.ro_snapshot_extension", "count"},
      {"stm.restarts.ro_promotion", "count"},
      {"stm.ro_commit_share", "ratio"},
      {"stm.reads_per_commit", "reads/commit"},
      {"stm.writes_per_commit", "writes/commit"},
      {"stm.tx_commit_ns_p50", "ns"},
      {"stm.tx_commit_ns_p99", "ns"},
      {"gc.limbo_pending_max", "count"},
      {"gc.freed_share", "ratio"},
      {"mem.arena_mb", "MiB"},
      {"mem.live_blocks", "count"},
      {"mem.arena_bytes_per_live_block", "B"},
      {"shard.move_ns", "ns"},
      {"shard.split_s", "s"},
      {"shard.merge_s", "s"},
      {"shard.reshard_s", "s"},
      {"shard.keys_migrated", "count"},
      {"shard.migration_batch_us_p99", "us"},
      {"shard.migration_batch_shrinks", "count"},
      {"shard.sched_active_share", "ratio"},
      {"serve.submit_ns", "ns"},
      {"serve.completion_lag_us", "us"},
      {"serve.batch_tx_us_p99", "us"},
      {"serve.batch_fill", "req/batch"},
      {"serve.per_op_tx_share", "ratio"},
      {"serve.conflict_fallbacks", "count"},
      {"serve.max_queue_depth", "count"},
      {"serve.gen_late_us_max", "us"},
      {"ckpt.full_s", "s"},
      {"ckpt.incr_s", "s"},
      {"ckpt.restore_s", "s"},
      {"ckpt.bytes_per_key", "B"},
      {"ckpt.stream_s", "s"},
      {"ckpt.write_s", "s"},
      {"ckpt.rounds", "count"},
      {"ckpt.forced_cuts", "count"},
      {"ckpt.reused_segments", "count"},
      {"ckpt.validate_s", "s"},
      {"ckpt.restore_keys_per_s", "keys/s"},
      {"ckpt.writer_ops_ratio", "ratio"},
  };
  return kCatalogue;
}

Result::Result(bool trace) : trace_(trace) {
  for (const auto& [name, unit] : perLayerCatalogue()) layer_[name] = 0.0;
}

void Result::set(const std::string& name, double value) {
  if (layer_.count(name) == 0) {
    check(false, "unknown per-layer metric " + name);
    return;
  }
  layer_[name] = std::isfinite(value) ? value : 0.0;
}

void Result::setEndToEnd(const std::string& name, const std::string& unit,
                         double value) {
  e2e_.push_back({name, {unit, value}});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Result::opFailed(const std::string& what, std::uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  failedKinds_[what] += n;
}

namespace {
std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}
}  // namespace

std::string Result::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed_
    << ", \"metrics\": {";
  bool first = true;
  const auto metric = [&](const std::string& name, const std::string& unit,
                          double v) {
    o << (first ? "" : ", ") << jsonString(name) << ": {\"value\": " << num(v)
      << ", \"unit\": " << jsonString(unit) << "}";
    first = false;
  };
  if (trace_) {
    for (const auto& [name, unit] : perLayerCatalogue())
      metric(name, unit, layer_.at(name));
  } else {
    for (const auto& [name, uv] : e2e_) metric(name, uv.first, uv.second);
  }
  o << "}, \"aux\": {";
  first = true;
  for (const auto& [k, v] : aux_) {
    o << (first ? "" : ", ") << jsonString(k) << ": " << num(v);
    first = false;
  }
  o << "}, \"errors\": [";
  first = true;
  for (const auto& e : errors_) {
    o << (first ? "" : ", ") << jsonString(e);
    first = false;
  }
  o << "], \"failed_kinds\": {";
  first = true;
  for (const auto& [k, v] : failedKinds_) {
    o << (first ? "" : ", ") << jsonString(k) << ": " << v;
    first = false;
  }
  o << "}}";
  return o.str();
}

namespace {
// Items per thread-private pointer-chase ring: 2^16 x 64 B = 4 MiB, beyond
// a private L2 so the chase measures what a tree descent pays.
constexpr std::size_t kChaseItems = std::size_t{1} << 16;
constexpr std::int64_t kCalibrationNs = 150'000'000;

struct alignas(64) ChaseItem {
  ChaseItem* next;
};

double chaseRate(int threads) {
  std::vector<double> perThread(static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const auto chase = [&](int t) {
    std::vector<ChaseItem> ring(kChaseItems);
    std::vector<std::size_t> order(kChaseItems);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(0xca11b, static_cast<std::uint64_t>(t));
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[rng.below(i + 1)]);
    for (std::size_t i = 0; i < order.size(); ++i)
      ring[order[i]].next = &ring[order[(i + 1) % order.size()]];
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    ChaseItem* p = &ring[order[0]];
    std::uint64_t steps = 0;
    const std::int64_t t0 = nowNs();
    std::int64_t t1 = t0;
    while (t1 - t0 < kCalibrationNs) {
      for (int i = 0; i < 4096; ++i) p = p->next;
      steps += 4096;
      t1 = nowNs();
    }
    perThread[static_cast<std::size_t>(t)] =
        p == nullptr ? 0.0
                     : static_cast<double>(steps) * 1e9 /
                           static_cast<double>(t1 - t0);
  };
  // The calling thread chases too, so `threads` threads exist in all.
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(chase, t);
  while (ready.load() < threads - 1) std::this_thread::yield();
  go.store(true);
  chase(0);
  for (auto& th : pool) th.join();
  return std::accumulate(perThread.begin(), perThread.end(), 0.0);
}
}  // namespace

void recordMachine(Result& r) {
  const double one = chaseRate(1);
  r.aux("machine.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  r.aux("machine.l1d_kib",
        static_cast<double>(sysconf(_SC_LEVEL1_DCACHE_SIZE)) / 1024.0);
  r.aux("machine.l2_kib",
        static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)) / 1024.0);
  r.aux("machine.l3_kib",
        static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / 1024.0);
  r.aux("machine.chase_steps_per_s_1t", one);
  for (const int t : {2, 4}) {
    r.aux("machine.parallelism_" + std::to_string(t) + "t",
          one > 0.0 ? chaseRate(t) / one : 0.0);
  }
}

}  // namespace pb
