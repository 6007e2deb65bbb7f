// The traced per-layer run: times calls into each library layer's public
// functions from outside (support, fiber, sim, exec, campaign, hw,
// telemetry), recording one span per call or per batch of calls.  The
// metric names and the end-to-end metric each should move are listed in
// perfbench/layers.json.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace pb {

struct LayerReport {
  std::vector<std::pair<std::string, double>> metrics;
  /// Every cross-check the probes make (fresh vs pooled vs batched trial
  /// summaries, grid statistics across engines and worker counts, election
  /// winners, soak violations) passed.
  bool correct = true;
  std::vector<std::string> errors;

  void add(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// Runs every probe once; `soak_seconds` is the length of the soak window
/// behind the soak.* metrics.
LayerReport run_layer_probes(std::uint64_t seed, double soak_seconds,
                             SpanRecorder& spans);

}  // namespace pb
