#include "sim_grid.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "algo/registry.hpp"
#include "campaign/presets.hpp"
#include "campaign/reporter.hpp"
#include "sim/runner.hpp"

namespace pb {

namespace campaign = rts::campaign;

campaign::CampaignSpec paper_le_spec(std::uint64_t seed, int trials) {
  const campaign::Preset* preset = campaign::find_preset("paper-le");
  if (preset == nullptr) throw std::runtime_error("paper-le preset missing");
  campaign::CampaignSpec spec = preset->spec;
  spec.seed = seed;
  spec.trials = trials;
  return spec;
}

int grid_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

campaign::CampaignResult run_grid(const campaign::CampaignSpec& spec,
                                  int workers, int batch_lanes,
                                  SpanRecorder* spans,
                                  const std::string& span_name) {
  campaign::ExecutorOptions options;
  options.workers = workers;
  options.sim_batch_lanes = batch_lanes;
  const ScopedSpan span(spans, span_name);
  return campaign::run_campaign(spec, options);
}

namespace {

/// Accumulator sums are mean * count in floating point; the samples are
/// integers far below 2^53, so rounding recovers the exact integer sum.
std::uint64_t exact_sum(const rts::support::Accumulator& acc) {
  return static_cast<std::uint64_t>(
      std::llround(acc.mean() * static_cast<double>(acc.count())));
}

CellStats stats_head(const campaign::CellSpec& cell) {
  CellStats stats;
  stats.algorithm = rts::algo::info(cell.algorithm).name;
  stats.k = cell.k;
  return stats;
}

}  // namespace

std::vector<CellStats> cell_stats(const campaign::CampaignResult& result) {
  std::vector<CellStats> out;
  out.reserve(result.cells.size());
  for (const campaign::CellResult& cell : result.cells) {
    CellStats stats = stats_head(cell.cell);
    stats.trials_run = static_cast<std::uint64_t>(cell.trials_run);
    stats.error_runs = static_cast<std::uint64_t>(cell.error_runs);
    stats.incomplete_runs = static_cast<std::uint64_t>(cell.incomplete_runs);
    stats.violation_runs = static_cast<std::uint64_t>(cell.agg.violation_runs);
    stats.declared_registers = cell.declared_registers;
    stats.max_steps_max =
        cell.agg.runs > 0
            ? static_cast<std::uint64_t>(cell.agg.max_steps.max())
            : 0;
    stats.total_steps_sum = exact_sum(cell.agg.total_steps);
    stats.regs_touched_sum = exact_sum(cell.agg.regs_touched);
    out.push_back(std::move(stats));
  }
  return out;
}

std::vector<CellStats> fresh_cell_stats(const campaign::CampaignSpec& spec,
                                        int threads) {
  const std::vector<campaign::CellSpec> cells = campaign::expand(spec);
  std::vector<CellStats> out;
  std::vector<rts::sim::LeBuilder> builders;
  std::vector<rts::sim::AdversaryFactory> factories;
  for (const campaign::CellSpec& cell : cells) {
    out.push_back(stats_head(cell));
    builders.push_back(rts::algo::sim_builder(cell.algorithm));
    factories.push_back(rts::algo::adversary_factory(cell.adversary));
  }
  // Flattened (cell, trial) index space, claimed one trial at a time; the
  // folds below are integer sums and maxima, so claim order is irrelevant.
  std::vector<std::pair<std::size_t, int>> work;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int t = 0; t < cells[c].trials; ++t) work.emplace_back(c, t);
  }
  const std::vector<CellStats> heads = out;
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards out
  const auto worker = [&] {
    std::vector<CellStats> local = heads;
    for (std::size_t i; (i = next.fetch_add(1)) < work.size();) {
      const auto [c, trial] = work[i];
      const campaign::CellSpec& cell = cells[c];
      CellStats& stats = local[c];
      ++stats.trials_run;
      rts::sim::Kernel::Options options;
      options.step_limit = cell.step_limit;
      rts::exec::TrialSummary summary;
      try {
        summary = rts::sim::summarize_trial(
            rts::sim::run_le_trial(builders[c], cell.n, cell.k, factories[c],
                                   trial, cell.seed0, options));
      } catch (const std::exception&) {
        ++stats.error_runs;
        continue;
      }
      if (!summary.completed) ++stats.incomplete_runs;
      if (!summary.first_violation.empty()) ++stats.violation_runs;
      stats.declared_registers = summary.declared_registers;
      stats.max_steps_max = std::max(stats.max_steps_max, summary.max_steps);
      stats.total_steps_sum += summary.total_steps;
      stats.regs_touched_sum += summary.regs_touched;
    }
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c].trials_run += local[c].trials_run;
      out[c].error_runs += local[c].error_runs;
      out[c].incomplete_runs += local[c].incomplete_runs;
      out[c].violation_runs += local[c].violation_runs;
      out[c].declared_registers =
          std::max(out[c].declared_registers, local[c].declared_registers);
      out[c].max_steps_max =
          std::max(out[c].max_steps_max, local[c].max_steps_max);
      out[c].total_steps_sum += local[c].total_steps_sum;
      out[c].regs_touched_sum += local[c].regs_touched_sum;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  return out;
}

std::uint64_t failed_trials(const std::vector<CellStats>& stats) {
  std::uint64_t failed = 0;
  for (const CellStats& cell : stats) {
    failed += cell.error_runs + cell.incomplete_runs + cell.violation_runs;
  }
  return failed;
}

std::uint64_t attempted_trials(const campaign::CampaignSpec& spec) {
  std::uint64_t total = 0;
  for (const campaign::CellSpec& cell : campaign::expand(spec)) {
    total += static_cast<std::uint64_t>(cell.trials);
  }
  return total;
}

std::string cell_stats_json(const std::vector<CellStats>& stats) {
  std::vector<std::string> rows;
  for (const CellStats& cell : stats) {
    rows.push_back(JsonObject()
                       .str("algorithm", cell.algorithm)
                       .integer("k", static_cast<std::uint64_t>(cell.k))
                       .integer("trials_run", cell.trials_run)
                       .integer("error_runs", cell.error_runs)
                       .integer("incomplete_runs", cell.incomplete_runs)
                       .integer("violation_runs", cell.violation_runs)
                       .integer("declared_registers", cell.declared_registers)
                       .integer("max_steps_max", cell.max_steps_max)
                       .integer("total_steps_sum", cell.total_steps_sum)
                       .integer("regs_touched_sum", cell.regs_touched_sum)
                       .render());
  }
  return json_array(rows);
}

std::string render_jsonl(const campaign::CampaignResult& result) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* out = open_memstream(&buffer, &size);
  if (out == nullptr) throw std::runtime_error("open_memstream failed");
  campaign::report_jsonl(result, out);
  std::fclose(out);
  std::string text(buffer, size);
  std::free(buffer);
  return text;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace pb
