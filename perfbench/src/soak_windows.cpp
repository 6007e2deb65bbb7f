#include "soak_windows.hpp"

#include <algorithm>
#include <cmath>

#include "algo/registry.hpp"
#include "campaign/soak.hpp"

namespace pb {

namespace campaign = rts::campaign;
using rts::telemetry::LatencyHistogram;

SoakWindow run_soak_window(std::uint64_t seed, double seconds,
                           SpanRecorder* spans) {
  campaign::SoakSpec spec;
  spec.name = "perfbench-soak";
  spec.algorithms = {rts::algo::AlgorithmId::kLogStarChain};
  spec.k = 2;
  spec.shards = 1;
  spec.rate = kSoakRate;
  spec.duration_seconds = seconds;
  spec.seed = seed;
  spec.deadline_ns = 0;
  spec.shed_backlog = 0;

  SoakWindow window;
  const Clock::time_point start = Clock::now();
  campaign::SoakResult result;
  {
    const ScopedSpan span(spans, "campaign.run_soak_one");
    result = campaign::run_soak_one(spec, spec.algorithms.front(),
                                    /*heartbeat=*/nullptr);
  }
  window.call_seconds = seconds_since(start);
  window.wall_seconds = result.wall_seconds;
  window.planned = result.planned;
  window.completed = result.completed;
  window.timed_out = result.timed_out;
  window.shed = result.shed;
  window.violations = result.violations;
  window.incomplete = result.incomplete;
  const std::uint64_t handled =
      result.completed + result.timed_out + result.shed;
  window.unserved = result.planned > handled ? result.planned - handled : 0;
  window.max_backlog = result.max_backlog;
  window.latency = result.latency;
  return window;
}

double interpolated_percentile_us(const LatencyHistogram& h, double q) {
  if (h.empty()) return 0.0;
  const double want = std::ceil(q * static_cast<double>(h.count()));
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      want < 1.0 ? 1 : static_cast<std::uint64_t>(want), 1, h.count());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    const std::uint64_t in_bucket = h.bucket_count_at(i);
    if (seen + in_bucket >= rank) {
      const double lower =
          static_cast<double>(LatencyHistogram::bucket_lower(i));
      const double width =
          static_cast<double>(LatencyHistogram::bucket_upper(i)) + 1.0 - lower;
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(in_bucket);
      const double ns = std::clamp(lower + width * within,
                                   static_cast<double>(h.min()),
                                   static_cast<double>(h.max()));
      return ns / 1000.0;
    }
    seen += in_bucket;
  }
  return static_cast<double>(h.max()) / 1000.0;
}

}  // namespace pb
