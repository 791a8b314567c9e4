// The benchmark workloads and the per-layer probes of traced runs.
//
// Each workload measures untraced passes for its end-to-end metrics, records
// exact counts and output checks, and — in a traced run — adds one traced
// pass plus its per-layer metrics. See perfbench/run.py for the contract.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "service/protocol.hpp"

namespace perfbench {

void run_sim_fig12(const Config& cfg, Report& rep);
void run_analytic_fig12(const Config& cfg, Report& rep);
void run_hapd_mix(const Config& cfg, Report& rep);

// Per-layer probes every traced run takes, so a layer a workload does not
// reach shows as flat rather than missing: RNG draw and inversion, fork-join
// and pool hand-off, protocol encode/parse and cache lookup on the hapd_mix
// request bodies of this seed, and the modulating-marginal direct solve.
void measure_shared_layers(const Config& cfg, Report& rep);

// The markov lanes (CSR build, coloring, colored Gauss-Seidel at 1 and
// nproc threads) on the Fig. 14 lattice, with their output checks; taken in
// analytic_fig12's traced run.
void measure_lattice_layers(const Config& cfg, Report& rep);

// The hapd_mix operating points: four light-load families (service 28, 29,
// 30, 31) swept over the user arrival rate in 0.002-0.003.
struct MixFamily {
    double service = 0.0;
};
std::vector<MixFamily> mix_families();
hap::service::ModelSpec mix_spec(const MixFamily& fam, double lambda);

// FNV-1a over the bytes of a sequence of doubles: a digest of output values
// that changes if any bit of any value changes.
std::uint64_t digest_doubles(const std::vector<double>& values);

}  // namespace perfbench
