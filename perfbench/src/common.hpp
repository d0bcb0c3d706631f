// Shared plumbing for the benchmark's workloads: options, seeded input
// generation, timing, quantiles, the span log behind traced runs, counter
// deltas over the program's public statistics, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "stm/stats.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string outDir = ".bench_out";
};

// --- time -------------------------------------------------------------------
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
// steady_clock reading taken when the process started (static init).
std::int64_t processStartNs();

// Set-up ends when maintenance has gone idle: `sample()` returns the
// restructuring count so far and the queued repair work, and the wait ends
// once the count has not moved and the queue stayed empty for 50 ms of
// 5 ms polls (or after 60 s).
template <typename Sample>
void waitMaintenanceIdle(Sample sample) {
  std::uint64_t last = ~std::uint64_t{0};
  int quiet = 0;
  const std::int64_t deadline = nowNs() + 60'000'000'000;
  while (quiet < 10 && nowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::pair<std::uint64_t, std::uint64_t> s = sample();
    quiet = (s.first == last && s.second == 0) ? quiet + 1 : 0;
    last = s.first;
  }
}

// --- seeded inputs ------------------------------------------------------------
std::uint64_t mix64(std::uint64_t x);

// xoshiro256**, seeded through splitmix64 from (seed, stream): every thread
// and every input table draws from its own stream of the run's seed.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_[4];
};

// Zipf(theta) over ranks [0, n), Gray et al.'s closed form (the YCSB
// generator); rank 0 is the hottest.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  std::uint64_t rank(Rng& rng) const;

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

// --- statistics -------------------------------------------------------------
// Linear-interpolated quantile (the same rule as numpy's default); sorts v.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
// Quantile of the samples an obs::LogHistogram gained between two snapshots
// of it (bucket-interpolated, so resolution is the histogram's factor 2).
double histDeltaQuantile(const sftree::obs::LogHistogram& before,
                         const sftree::obs::LogHistogram& after, double q);
double histDeltaMean(const sftree::obs::LogHistogram& before,
                     const sftree::obs::LogHistogram& after);
double peakRssMb();

// STM counters gained between two aggregate snapshots.
struct StmDelta {
  double commits = 0, aborts = 0, roCommits = 0, reads = 0, writes = 0;
  double restartsRoExt = 0, restartsRoPromo = 0;
  double abortReadValidation = 0, abortLockConflict = 0;
  double abortElasticValidation = 0, abortCrossDomainJoin = 0;
  double ops = 0, opReads = 0;
  double commitNsP50 = 0, commitNsP99 = 0;
};
StmDelta stmDelta(const sftree::stm::ThreadStats& before,
                  const sftree::stm::ThreadStats& after);

// --- traced runs --------------------------------------------------------------
// Spans recorded by the benchmark around its calls into the program's
// layers: name, thread, request id, parent span, start and end. Each thread
// appends to its own buffer (no sharing on the hot path); one span in
// `stride` is kept so a long run stays within memory, and every kept span
// is written out when the run ends.
class SpanLog {
 public:
  SpanLog(int threads, std::uint64_t stride);
  bool keep(std::uint64_t seq) const { return seq % stride_ == 0; }
  void record(int thread, const char* name, std::uint64_t id,
              std::uint64_t parent, std::int64_t start, std::int64_t end);
  // Durations (ns) of every kept span with this name, all threads.
  std::vector<double> durations(const std::string& name) const;
  std::size_t size() const;
  // Chrome trace-event JSON (one "X" event per span).
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id, parent;
    std::int64_t start, end;
  };
  std::uint64_t stride_;
  std::vector<std::vector<Span>> perThread_;
};

// --- result -------------------------------------------------------------------
// The per-layer metric catalogue: every traced run reports every name here
// (0 where the workload does not exercise the layer; see README.md).
const std::vector<std::pair<std::string, std::string>>& perLayerCatalogue();

class Result {
 public:
  explicit Result(bool trace);
  void set(const std::string& name, double value);  // catalogue metric
  void setEndToEnd(const std::string& name, const std::string& unit,
                   double value);
  void aux(const std::string& key, double value) { aux_[key] = value; }
  // A global output check failed: the run is not correct.
  void check(bool ok, const std::string& what);
  // One operation's result was refuted or refused.
  void opFailed(const std::string& what, std::uint64_t n = 1);
  std::uint64_t attempted = 0;
  std::string json() const;
  bool correct() const { return errors_.empty(); }

 private:
  bool trace_;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::uint64_t> failedKinds_;
  std::vector<std::pair<std::string, std::pair<std::string, double>>> e2e_;
  std::map<std::string, double> layer_;
  std::map<std::string, double> aux_;
};

// Delivered parallelism: a private pointer-chase per thread at 1, 2 and 4
// threads, reported as aggregate rate relative to one thread, plus nproc
// and the cache sizes the C library reports. Reference figures only.
void recordMachine(Result& r);

}  // namespace pb
