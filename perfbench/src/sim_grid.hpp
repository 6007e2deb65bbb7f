// The paper-le grid behind the `sim-scalar` and `sim-batched` workloads:
// the paper's four leader-election headliners at k in {64, 256, 1024}
// under the uniform-random scheduler, run through campaign::run_campaign,
// plus the exact per-cell statistics the correctness checks compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/executor.hpp"
#include "campaign/spec.hpp"

namespace pb {

/// Lane width of the batched workload (ExecutorOptions::sim_batch_lanes).
constexpr int kBatchLanes = 32;

/// The `paper-le` preset's grid with the campaign seed and trials per cell
/// replaced.
rts::campaign::CampaignSpec paper_le_spec(std::uint64_t seed, int trials);

/// min(4, hardware threads): the workers every sim workload runs with.
int grid_workers();

/// One grid through the campaign executor, wrapped in a span when traced.
/// `batch_lanes` 0 keeps the scalar pooled path.
rts::campaign::CampaignResult run_grid(const rts::campaign::CampaignSpec& spec,
                                       int workers, int batch_lanes,
                                       SpanRecorder* spans,
                                       const std::string& span_name);

/// Exact simulated statistics of one cell.  Everything the executor folds
/// is an integer, so these compare with ==.
struct CellStats {
  std::string algorithm;
  int k = 0;
  std::uint64_t trials_run = 0;
  std::uint64_t error_runs = 0;
  std::uint64_t incomplete_runs = 0;
  std::uint64_t violation_runs = 0;
  std::uint64_t declared_registers = 0;
  std::uint64_t max_steps_max = 0;
  std::uint64_t total_steps_sum = 0;
  std::uint64_t regs_touched_sum = 0;

  bool operator==(const CellStats&) const = default;
};

std::vector<CellStats> cell_stats(const rts::campaign::CampaignResult& result);

/// The oracle: every trial of every cell through the fresh-kernel path
/// (sim::run_le_trial), spread over `threads` plain threads.
std::vector<CellStats> fresh_cell_stats(
    const rts::campaign::CampaignSpec& spec, int threads);

/// Trials of the grid that errored, hit the step limit, or violated the
/// exactly-one-winner invariant.
std::uint64_t failed_trials(const std::vector<CellStats>& stats);
std::uint64_t attempted_trials(const rts::campaign::CampaignSpec& spec);

std::string cell_stats_json(const std::vector<CellStats>& stats);

/// campaign::report_jsonl rendered to memory.
std::string render_jsonl(const rts::campaign::CampaignResult& result);

/// FNV-1a 64 of a byte string, as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes);

}  // namespace pb
