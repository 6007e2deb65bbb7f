// The `soak` workload: campaign::run_soak_one as an open-loop hw election
// service (logstar, k = 2, one shard, 2000 arrivals/s, no deadline or shed
// gate), run in back-to-back windows so one run yields several samples of
// each end-to-end metric.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "telemetry/histogram.hpp"

namespace pb {

constexpr double kSoakRate = 2000.0;

struct SoakWindow {
  double call_seconds = 0.0;  ///< wall time of the whole run_soak_one call
  double wall_seconds = 0.0;  ///< SoakResult::wall_seconds (arrivals + drain)
  std::uint64_t planned = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shed = 0;
  std::uint64_t violations = 0;
  std::uint64_t incomplete = 0;
  /// planned - completed - timed_out - shed: arrivals the dispatcher never
  /// handled (it stops dispatching once the wall deadline has passed).
  std::uint64_t unserved = 0;
  std::uint64_t max_backlog = 0;
  rts::telemetry::LatencyHistogram latency;  ///< ns from scheduled arrival

  /// Everything not served cleanly: timed out, shed, violated, incomplete,
  /// or never dispatched.
  std::uint64_t failed() const {
    return timed_out + shed + violations + incomplete + unserved;
  }
  /// Time run_soak_one spends outside its arrival-and-drain window: pool
  /// threads, perf counter groups, server start-up and teardown.
  double setup_seconds() const { return call_seconds - wall_seconds; }
};

/// One window of `seconds` with arrival seed stream `seed`.
SoakWindow run_soak_window(std::uint64_t seed, double seconds,
                           SpanRecorder* spans);

/// Percentile q of the histogram with linear interpolation inside the
/// ~3%-wide bucket holding the rank, in microseconds.  The histogram's own
/// percentile() returns the bucket's upper bound, which repeats exactly
/// from run to run; the interpolated value keeps the measured digits.
double interpolated_percentile_us(const rts::telemetry::LatencyHistogram& h,
                                  double q);

}  // namespace pb
