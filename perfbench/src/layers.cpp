#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "algo/batch.hpp"
#include "algo/registry.hpp"
#include "exec/workspace.hpp"
#include "fiber/fiber.hpp"
#include "hw/harness.hpp"
#include "sim/kernel.hpp"
#include "sim/runner.hpp"
#include "sim_grid.hpp"
#include "soak_windows.hpp"
#include "support/rng.hpp"
#include "telemetry/histogram.hpp"

namespace pb {

namespace {

namespace campaign = rts::campaign;
namespace exec = rts::exec;
namespace sim = rts::sim;
using rts::algo::AlgorithmId;

/// Repeated batches of a cheap operation; each batch is one span.
constexpr int kMicroBatches = 7;
/// Closed-loop hw election probe length.
constexpr double kElectionSeconds = 0.5;
constexpr int kPoolBuilds = 7;

/// Runs `batch(iterations)` kMicroBatches times, each inside a span, and
/// returns the median nanoseconds per iteration.
template <typename Batch>
double micro_ns(SpanRecorder& spans, const std::string& name,
                std::uint64_t iterations, Batch&& batch) {
  std::vector<double> per_op;
  for (int b = 0; b < kMicroBatches; ++b) {
    const ScopedSpan span(&spans, name);
    const Clock::time_point start = Clock::now();
    batch(iterations);
    per_op.push_back(seconds_since(start) * 1e9 /
                     static_cast<double>(iterations));
  }
  return median(per_op);
}

void probe_micro(std::uint64_t seed, SpanRecorder& spans, LayerReport& out) {
  {
    rts::support::PrngSource source(seed);
    rts::support::RandomSource& random = source;
    std::uint64_t sink = 0;
    out.add("support.draw_ns",
            micro_ns(spans, "support.PrngSource::draw", 1u << 22,
                     [&](std::uint64_t n) {
                       for (std::uint64_t i = 0; i < n; ++i) {
                         sink += random.draw(1024);
                       }
                     }));
    if (sink == 0) out.fail("support: PrngSource::draw returned only zeros");
  }
  {
    rts::fiber::ExecutionContext main_ctx;
    bool stop = false;
    rts::fiber::Fiber* self = nullptr;
    rts::fiber::Fiber fib([&] {
      while (!stop) rts::fiber::switch_context(*self, main_ctx);
    });
    self = &fib;
    fib.set_return_to(&main_ctx);
    // One round trip is two switches.
    out.add("fiber.switch_ns",
            micro_ns(spans, "fiber.switch_context", 1u << 20,
                     [&](std::uint64_t n) {
                       for (std::uint64_t i = 0; i < n; ++i) {
                         rts::fiber::switch_context(main_ctx, fib);
                       }
                     }) /
                2.0);
    stop = true;
    rts::fiber::switch_context(main_ctx, fib);
  }
  {
    // One process reading a register forever: announce + grant + resume.
    sim::Kernel::Options options;
    options.step_limit = UINT64_MAX;
    sim::Kernel kernel(options);
    const sim::RegId reg = kernel.memory().alloc("r");
    kernel.add_process(
        [reg](sim::Context& ctx) {
          for (;;) ctx.read(reg);
        },
        std::make_unique<rts::support::PrngSource>(seed));
    kernel.start();
    out.add("sim.step_ns", micro_ns(spans, "sim.Kernel::grant", 1u << 20,
                                    [&](std::uint64_t n) {
                                      for (std::uint64_t i = 0; i < n; ++i) {
                                        kernel.grant(0);
                                      }
                                    }));
  }
  {
    // Latencies spread over the 1 us .. 1 ms octaves the soak records.
    std::vector<std::uint64_t> values(4096);
    rts::support::Xoshiro256 rng(seed);
    for (std::uint64_t& v : values) v = 1000 + rng.next() % 1'000'000;
    rts::telemetry::LatencyHistogram histogram;
    out.add("telemetry.record_ns",
            micro_ns(spans, "telemetry.LatencyHistogram::record", 1u << 22,
                     [&](std::uint64_t n) {
                       for (std::uint64_t i = 0; i < n; ++i) {
                         histogram.record(values[i & 4095]);
                       }
                     }));
    if (histogram.count() == 0) out.fail("telemetry: histogram stayed empty");
  }
}

std::string cell_label(const campaign::CellSpec& cell) {
  return std::string(rts::algo::info(cell.algorithm).name) + ".k" +
         std::to_string(cell.k);
}

bool same_summary(const exec::TrialSummary& a, const exec::TrialSummary& b) {
  return a.max_steps == b.max_steps && a.total_steps == b.total_steps &&
         a.regs_touched == b.regs_touched &&
         a.declared_registers == b.declared_registers &&
         a.unfinished == b.unfinished && a.crash_free == b.crash_free &&
         a.completed == b.completed &&
         a.first_violation == b.first_violation;
}

sim::Kernel::Options kernel_options_of(const campaign::CellSpec& cell) {
  sim::Kernel::Options options;
  options.step_limit = cell.step_limit;
  return options;
}

exec::BatchStreamFactory batch_factory(const campaign::CellSpec& cell) {
  return [cell] {
    return rts::algo::make_batch_stream(cell.algorithm, cell.adversary, cell.n,
                                        cell.k, kBatchLanes, cell.seed0,
                                        cell.step_limit);
  };
}

/// Per-trial time of one cell on the three trial paths over the same
/// trials -- the cell's second lane block, so each path's one-time build is
/// paid by an untimed first block or trial -- cross-checked trial by trial.
/// Returns the cell's {pooled, batched} serial seconds for all its trials
/// (the weights behind campaign.max_cell_share.*).
std::pair<double, double> probe_cell(const campaign::CellSpec& cell,
                                     SpanRecorder& spans, LayerReport& out) {
  const std::string label = cell_label(cell);
  const sim::LeBuilder builder = rts::algo::sim_builder(cell.algorithm);
  const sim::AdversaryFactory factory =
      rts::algo::adversary_factory(cell.adversary);
  const sim::Kernel::Options options = kernel_options_of(cell);
  const auto key = static_cast<std::uint64_t>(cell.index);
  const int first = kBatchLanes;
  const int last = std::min(cell.trials, 2 * kBatchLanes);
  const double trials = last - first;

  exec::TrialWorkspace pooled_ws;
  pooled_ws.run_le_trial_summary(key, builder, cell.n, cell.k, factory, 0,
                                 cell.seed0, options);
  std::vector<exec::TrialSummary> pooled;
  double pooled_s = 0.0;
  for (int trial = first; trial < last; ++trial) {
    const ScopedSpan span(&spans, "exec.TrialWorkspace::run_le_trial_summary");
    const Clock::time_point start = Clock::now();
    pooled.push_back(pooled_ws.run_le_trial_summary(
        key, builder, cell.n, cell.k, factory, trial, cell.seed0, options));
    pooled_s += seconds_since(start);
  }

  double fresh_s = 0.0;
  for (int trial = first; trial < last; ++trial) {
    const ScopedSpan span(&spans, "sim.run_le_trial");
    const Clock::time_point start = Clock::now();
    const exec::TrialSummary fresh = sim::summarize_trial(sim::run_le_trial(
        builder, cell.n, cell.k, factory, trial, cell.seed0, options));
    fresh_s += seconds_since(start);
    if (!same_summary(fresh, pooled[static_cast<std::size_t>(trial - first)])) {
      out.fail("exec: pooled/fresh divergence at " + label + " trial " +
               std::to_string(trial));
    }
  }

  exec::TrialWorkspace batch_ws;
  const exec::BatchStreamFactory make_stream = batch_factory(cell);
  batch_ws.run_le_batch_trial(key, make_stream, kBatchLanes, 0, cell.trials);
  double batched_s = 0.0;
  {
    const ScopedSpan span(&spans, "exec.TrialWorkspace::run_le_batch_trial");
    const Clock::time_point start = Clock::now();
    for (int trial = first; trial < last; ++trial) {
      const exec::TrialSummary batched = batch_ws.run_le_batch_trial(
          key, make_stream, kBatchLanes, trial, cell.trials);
      if (!same_summary(batched,
                        pooled[static_cast<std::size_t>(trial - first)])) {
        out.fail("exec: batched/pooled divergence at " + label + " trial " +
                 std::to_string(trial));
      }
    }
    batched_s = seconds_since(start);
  }

  out.add("exec.fresh_trial_us." + label, fresh_s * 1e6 / trials);
  out.add("exec.pooled_trial_us." + label, pooled_s * 1e6 / trials);
  out.add("exec.batched_trial_us." + label, batched_s * 1e6 / trials);
  return {pooled_s / trials * cell.trials, batched_s / trials * cell.trials};
}

/// First-touch stream builds, on a new thread so its thread-local fiber
/// stack pool starts empty, as a campaign worker's does.  A scalar stream
/// build is a cell's cold first trial minus the same trial rerun warm; a
/// batch stream build is the algo::make_batch_stream call itself.
void probe_builds(const std::vector<campaign::CellSpec>& cells,
                  SpanRecorder& spans, LayerReport& out) {
  double scalar_ms = 0.0;
  double batch_ms = 0.0;
  bool ok = true;
  std::thread worker([&] {
    exec::TrialWorkspace scalar_ws;
    for (const campaign::CellSpec& cell : cells) {
      const sim::LeBuilder builder = rts::algo::sim_builder(cell.algorithm);
      const sim::AdversaryFactory factory =
          rts::algo::adversary_factory(cell.adversary);
      const auto key = static_cast<std::uint64_t>(cell.index);
      const auto timed_trial = [&] {
        const Clock::time_point start = Clock::now();
        scalar_ws.run_le_trial_summary(key, builder, cell.n, cell.k, factory,
                                       0, cell.seed0, kernel_options_of(cell));
        return seconds_since(start);
      };
      const double cold = timed_trial();
      const double warm = timed_trial();
      scalar_ms += (cold - warm) * 1e3;

      // The batch stream build is exactly the factory the workspace calls.
      const Clock::time_point start = Clock::now();
      const auto stream = batch_factory(cell)();
      batch_ms += seconds_since(start) * 1e3;
      if (stream == nullptr) ok = false;
    }
  });
  {
    // The worker thread records no spans itself (the recorder is
    // single-threaded); one span covers the whole probe.
    const ScopedSpan span(&spans, "exec.TrialWorkspace stream builds");
    worker.join();
  }
  if (!ok) out.fail("exec: a paper-le cell has no batch stream");
  out.add("exec.build_ms", scalar_ms);
  out.add("exec.batch_build_ms", batch_ms);
}

struct GridTiming {
  double wall = 0.0;
  double cpu = 0.0;
  campaign::CampaignResult result;
};

GridTiming timed_grid(const campaign::CampaignSpec& spec, int workers,
                      int lanes, SpanRecorder& spans, const std::string& name) {
  GridTiming timing;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  timing.result = run_grid(spec, workers, lanes, &spans, name);
  timing.wall = seconds_since(start);
  timing.cpu = process_cpu_seconds() - cpu0;
  return timing;
}

/// Parallel efficiency of the grid on each engine, split into how busy the
/// workers were and how much more CPU the parallel run burned than the
/// serial one: parallel_eff = wall(1) / (W * wall(W)) ~ busy_frac / cpu_ratio.
void probe_campaign(const campaign::CampaignSpec& spec, SpanRecorder& spans,
                    LayerReport& out) {
  const int workers = grid_workers();
  std::vector<CellStats> reference;
  for (const auto& [workload, lanes] :
       {std::pair<std::string, int>{"sim-scalar", 0},
        std::pair<std::string, int>{"sim-batched", kBatchLanes}}) {
    const GridTiming serial = timed_grid(spec, 1, lanes, spans,
                                         "campaign.run_campaign " + workload +
                                             " w1");
    const GridTiming parallel =
        timed_grid(spec, workers, lanes, spans,
                   "campaign.run_campaign " + workload + " w" +
                       std::to_string(workers));
    out.add("campaign.parallel_eff." + workload,
            serial.wall / (workers * parallel.wall));
    out.add("campaign.busy_frac." + workload,
            parallel.cpu / (workers * parallel.wall));
    out.add("campaign.cpu_ratio." + workload, parallel.cpu / serial.cpu);
    if (lanes > 0) {
      // W single-worker grids at once: if each runs about as fast as one
      // alone, the extra CPU of the W-worker grid is duplicated work, not
      // contention for memory bandwidth or caches.
      std::vector<double> corun_s(static_cast<std::size_t>(workers));
      std::vector<std::thread> threads;
      {
        const ScopedSpan span(&spans, "campaign.run_campaign " + workload +
                                          " w1 x" + std::to_string(workers));
        for (std::size_t w = 0; w < corun_s.size(); ++w) {
          threads.emplace_back([&, w] {
            const Clock::time_point start = Clock::now();
            run_grid(spec, 1, lanes, nullptr, "");
            corun_s[w] = seconds_since(start);
          });
        }
        for (std::thread& thread : threads) thread.join();
      }
      out.add("campaign.corun_slowdown." + workload,
              median(corun_s) / serial.wall);
    }
    for (const GridTiming* run : {&serial, &parallel}) {
      const std::vector<CellStats> stats = cell_stats(run->result);
      if (reference.empty()) reference = stats;
      if (stats != reference || failed_trials(stats) != 0) {
        out.fail("campaign: " + workload +
                 " grid statistics differ across engines or worker counts, "
                 "or trials failed");
      }
    }
    if (lanes == 0) {
      out.add("sim.steps", static_cast<double>(serial.result.sim_steps));
      std::vector<double> report_ms;
      for (int i = 0; i < 5; ++i) {
        const ScopedSpan span(&spans, "campaign.report_jsonl");
        const Clock::time_point start = Clock::now();
        const std::string bytes = render_jsonl(serial.result);
        report_ms.push_back(seconds_since(start) * 1e3);
        if (bytes.empty()) out.fail("campaign: report_jsonl wrote nothing");
      }
      out.add("campaign.report_jsonl_ms", median(report_ms));
    }
  }
}

/// Returns the closed-loop election p50 in microseconds.
double probe_hw(std::uint64_t seed, SpanRecorder& spans, LayerReport& out) {
  std::vector<double> build_ms;
  std::vector<double> teardown_ms;
  for (int i = 0; i < kPoolBuilds; ++i) {
    const Clock::time_point start = Clock::now();
    Clock::time_point built;
    {
      const ScopedSpan span(&spans, "hw.HwTrialPool lifetime");
      rts::hw::HwTrialPool pool(2);
      built = Clock::now();
    }
    build_ms.push_back(seconds_between(start, built) * 1e3);
    teardown_ms.push_back(seconds_since(built) * 1e3);
  }
  out.add("hw.pool_build_ms", median(build_ms));
  out.add("hw.pool_teardown_ms", median(teardown_ms));

  rts::hw::HwTrialPool pool(2);
  std::vector<double> election_us;
  std::uint64_t elections = 0;
  const auto elect = [&](bool record) {
    const std::uint64_t election_seed =
        rts::support::derive_seed(seed, elections++);
    const Clock::time_point start = Clock::now();
    const rts::hw::HwRunResult result =
        pool.run(AlgorithmId::kLogStarChain, 2, election_seed);
    const double us = seconds_since(start) * 1e6;
    if (result.winners != 1 || !result.completed ||
        !result.violations.empty()) {
      out.fail("hw: pool election without exactly one winner");
    }
    if (record) election_us.push_back(us);
  };
  for (int i = 0; i < 200; ++i) elect(false);  // warm the parked threads
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < kElectionSeconds) {
    // One span per 1000 elections keeps the trace small.
    const ScopedSpan span(&spans, "hw.HwTrialPool::run x1000");
    for (int i = 0; i < 1000; ++i) elect(true);
  }
  const double loop_seconds = seconds_since(start);
  const double p50 = percentile(election_us, 0.50);
  out.add("hw.pool_election_us.p50", p50);
  out.add("hw.pool_election_us.p99", percentile(election_us, 0.99));
  out.add("hw.pool_elections_per_s",
          static_cast<double>(election_us.size()) / loop_seconds);
  return p50;
}

void probe_soak(std::uint64_t seed, double seconds, double election_p50_us,
                SpanRecorder& spans, LayerReport& out) {
  const SoakWindow window = run_soak_window(seed, seconds, &spans);
  if (window.violations != 0 || window.incomplete != 0) {
    out.fail("soak: violations or incomplete elections");
  }
  const double p50 = interpolated_percentile_us(window.latency, 0.50);
  out.add("soak.p50_us", p50);
  out.add("soak.service_us", p50 - election_p50_us);
  out.add("soak.p99_us", interpolated_percentile_us(window.latency, 0.99));
  out.add("soak.p999_us", interpolated_percentile_us(window.latency, 0.999));
  out.add("soak.max_backlog", static_cast<double>(window.max_backlog));
  out.add("soak.unserved", static_cast<double>(window.unserved));
  // From the last scheduled arrival to the end of the drain.
  out.add("soak.drain_s",
          window.wall_seconds -
              static_cast<double>(window.planned - 1) / kSoakRate);
}

}  // namespace

LayerReport run_layer_probes(std::uint64_t seed, double soak_seconds,
                             SpanRecorder& spans) {
  LayerReport out;
  const ScopedSpan root(&spans, "perfbench.layers");
  probe_micro(seed, spans, out);

  const campaign::CampaignSpec spec = paper_le_spec(seed, 150);
  const std::vector<campaign::CellSpec> cells = campaign::expand(spec);
  double pooled_total = 0.0;
  double batched_total = 0.0;
  double pooled_max = 0.0;
  double batched_max = 0.0;
  for (const campaign::CellSpec& cell : cells) {
    const ScopedSpan span(&spans, "exec cell " + cell_label(cell));
    const auto [pooled, batched] = probe_cell(cell, spans, out);
    pooled_total += pooled;
    batched_total += batched;
    pooled_max = std::max(pooled_max, pooled);
    batched_max = std::max(batched_max, batched);
  }
  // The largest cell's share of the grid's serial work: a bound on how far
  // trial-level work stealing can spread the grid.
  out.add("campaign.max_cell_share.sim-scalar", pooled_max / pooled_total);
  out.add("campaign.max_cell_share.sim-batched", batched_max / batched_total);

  probe_builds(cells, spans, out);
  probe_campaign(spec, spans, out);
  const double election_p50 = probe_hw(seed, spans, out);
  probe_soak(seed, soak_seconds, election_p50, spans, out);
  return out;
}

}  // namespace pb
