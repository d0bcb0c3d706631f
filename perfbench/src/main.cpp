// The benchmark program: runs one named workload per process and prints the
// result line (the last line of standard output) that run.py relays.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace pb {

void reportLatency(Result& r, const char* cls, std::vector<double> ns) {
  const std::string base = cls;
  r.check(ns.size() >= 1000, "too few " + base + " latency samples");
  r.aux(base + "_latency_samples", static_cast<double>(ns.size()));
  r.setEndToEnd(base + "_p50_us", "us", quantile(ns, 0.50) / 1e3);
  // The p99 goes with the run's recorded results, not the gated metrics
  // (README.md, "Dropped metrics").
  r.aux(base + "_p99_us", quantile(ns, 0.99) / 1e3);
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (flag == "--trace") {
      opt.trace = val == "1";
    } else if (flag == "--out") {
      opt.outDir = val;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (opt.seconds < 1) {
    std::cerr << "--seconds must be at least 1\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.outDir, ec);
  if (ec) {
    std::cerr << "cannot create " << opt.outDir << ": " << ec.message() << "\n";
    return 2;
  }
  pb::Result r(opt.trace);
  if (opt.workload == "tree-churn") {
    pb::runTreeChurn(opt, r);
  } else if (opt.workload == "serve-openloop") {
    pb::runServeOpenLoop(opt, r);
  } else if (opt.workload == "ckpt-reshard-live") {
    pb::runCkptReshardLive(opt, r);
  } else {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  pb::recordMachine(r);
  std::cout << r.json() << std::endl;
  return 0;
}
