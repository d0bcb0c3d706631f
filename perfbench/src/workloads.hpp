// The benchmark's workloads; each runs one whole measured run in this
// process and fills in the result line (README.md says what each stresses).
#pragma once

#include "common.hpp"
#include "layers.hpp"

namespace pb {

void runTreeChurn(const Options& opt, Result& r);
void runServeOpenLoop(const Options& opt, Result& r);
void runCkptReshardLive(const Options& opt, Result& r);

// Latency samples (ns) of one operation class: the median in microseconds
// is the end-to-end metric <cls>_p50_us; the 99th percentile is recorded.
void reportLatency(Result& r, const char* cls, std::vector<double> ns);

}  // namespace pb
