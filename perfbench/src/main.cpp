// rts_perfbench: the measuring half of the repository benchmark.
// perfbench/run.py builds it, runs one mode per process (so each
// process's peak RSS belongs to one workload), and assembles the result.
//
//   rts_perfbench fingerprint
//   rts_perfbench check    --seed N --out FILE
//   rts_perfbench workload --workload sim-scalar|sim-batched|soak --seed N
//                          --seconds S --out FILE [--spans FILE]
//   rts_perfbench layers   --seed N --soak-seconds S --out FILE --spans FILE
//
// `check` runs the paper-le grid through the fresh-kernel oracle, the
// scalar pooled executor and the batched executor and reports whether
// their exact per-cell statistics agree.  `workload` measures one
// workload's end-to-end metrics for S seconds; with --spans it records a
// span around every library call it makes (the traced pass).  `layers`
// runs the per-layer probes.  Each mode writes one JSON object to FILE.
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "sim_grid.hpp"
#include "soak_windows.hpp"
#include "support/rng.hpp"

namespace pb {
namespace {

/// Samples of the setup metric per run; the reported value is their median.
/// Single samples vary by +-25% on a shared host.
constexpr int kSetupReps = 15;
/// Minimum timed repetitions (grids or soak windows) per run.
constexpr int kMinReps = 3;
constexpr double kSoakWindowSeconds = 2.0;
constexpr double kSoakSetupWindowSeconds = 0.1;

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  std::string need(const std::string& name) const {
    const auto it = flags.find(name);
    if (it == flags.end()) throw std::runtime_error("missing --" + name);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) {
    throw std::runtime_error("usage: rts_perfbench MODE [--flag value]...");
  }
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument '" + flag + "'");
    }
    args.flags[flag.substr(2)] = argv[++i];
  }
  return args;
}

std::uint64_t parse_u64(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used, 10);
  if (used != text.size()) throw std::runtime_error("not an integer: " + text);
  return value;
}

void emit(const Args& args, const std::string& json) {
  const std::string path = args.need("out");
  if (!write_file(path, json)) {
    throw std::runtime_error("cannot write " + path);
  }
}

void write_spans(const SpanRecorder* spans, const Args& args) {
  if (spans == nullptr) return;
  const std::string path = args.need("spans");
  if (!spans->write_jsonl(path)) {
    throw std::runtime_error("cannot write " + path);
  }
}

int mode_fingerprint() {
  std::printf("%s\n", JsonObject()
                          .str("compiler", PB_COMPILER)
                          .str("build_type", PB_BUILD_TYPE)
                          .str("cxx_flags", PB_CXX_FLAGS)
                          .str("lto", PB_LTO)
                          .render()
                          .c_str());
  return 0;
}

int mode_check(const Args& args) {
  const std::uint64_t seed = parse_u64(args.need("seed"));
  const auto spec = paper_le_spec(seed, 150);
  const int workers = grid_workers();
  const std::vector<CellStats> fresh = fresh_cell_stats(spec, workers);
  const auto scalar_result = run_grid(spec, workers, 0, nullptr, "");
  const auto batched_result = run_grid(spec, workers, kBatchLanes, nullptr, "");
  const std::vector<CellStats> scalar = cell_stats(scalar_result);
  const std::vector<CellStats> batched = cell_stats(batched_result);
  const std::string scalar_fnv = fnv1a_hex(render_jsonl(scalar_result));
  const std::string batched_fnv = fnv1a_hex(render_jsonl(batched_result));
  const bool agree = fresh == scalar && scalar == batched &&
                     scalar_fnv == batched_fnv &&
                     scalar_result.sim_steps == batched_result.sim_steps;
  JsonObject out;
  out.integer("seed", seed)
      .boolean("agree", agree)
      .integer("sim_steps", scalar_result.sim_steps)
      .str("jsonl_fnv", scalar_fnv)
      .raw("cells", cell_stats_json(scalar));
  if (!agree) {
    out.raw("fresh_cells", cell_stats_json(fresh))
        .raw("batched_cells", cell_stats_json(batched))
        .str("batched_jsonl_fnv", batched_fnv);
  }
  emit(args, out.render());
  return 0;
}

std::string run_sim_workload(std::uint64_t seed, double seconds, int lanes,
                             SpanRecorder* spans) {
  const int workers = grid_workers();
  const auto spec = paper_le_spec(seed, 150);
  const auto setup_spec = paper_le_spec(seed, 1);
  const double grid_trials = static_cast<double>(attempted_trials(spec));

  // Set-up: the grid at one trial per cell is almost entirely the
  // first-touch workspace, stack and batch-stream builds a campaign pays.
  // It runs on one worker: parallel builds contend in the kernel's
  // page-fault path, and on a shared host that contention moved the
  // all-worker figure by 40% between back-to-back runs (one worker: 5%).
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point start = Clock::now();
    run_grid(setup_spec, 1, lanes, spans, "campaign.run_campaign setup");
    setup_s.push_back(seconds_since(start));
  }

  std::vector<double> grid_s;
  std::vector<CellStats> first;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t sim_steps = 0;
  std::string jsonl_fnv;
  bool deterministic = true;
  const Clock::time_point begin = Clock::now();
  while (grid_s.size() < kMinReps || seconds_since(begin) < seconds) {
    const Clock::time_point start = Clock::now();
    const auto result =
        run_grid(spec, workers, lanes, spans, "campaign.run_campaign");
    grid_s.push_back(seconds_since(start));
    const std::vector<CellStats> stats = cell_stats(result);
    attempted += attempted_trials(spec);
    failed += failed_trials(stats);
    if (first.empty()) {
      first = stats;
      sim_steps = result.sim_steps;
      jsonl_fnv = fnv1a_hex(render_jsonl(result));
    } else if (stats != first || result.sim_steps != sim_steps) {
      deterministic = false;
    }
  }
  std::vector<double> trials_per_s;
  for (const double s : grid_s) trials_per_s.push_back(grid_trials / s);

  return JsonObject()
      .num("trials_per_s", median(trials_per_s))
      .num("p50_us", median(grid_s) * 1e6)
      .num("setup_s", median(setup_s))
      .num("peak_rss_mb", peak_rss_mb())
      .integer("attempted", attempted)
      .integer("failed", failed)
      .boolean("correct", deterministic)
      .integer("workers", static_cast<std::uint64_t>(workers))
      .integer("sim_steps", sim_steps)
      .str("jsonl_fnv", jsonl_fnv)
      .raw("cells", cell_stats_json(first))
      .nums("grid_s", grid_s)
      .nums("setup_samples_s", setup_s)
      .render();
}

std::string run_soak_workload(std::uint64_t seed, double seconds,
                              SpanRecorder* spans) {
  const int windows = std::max(
      kMinReps, static_cast<int>(std::lround(seconds / kSoakWindowSeconds)));
  std::vector<double> p50_us;
  std::vector<double> served_per_s;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unserved = 0;
  bool correct = true;
  rts::telemetry::LatencyHistogram merged;
  const auto account = [&](const SoakWindow& window) {
    if (window.violations != 0 || window.incomplete != 0 ||
        window.latency.empty()) {
      correct = false;
    }
    setup_s.push_back(window.setup_seconds());
    attempted += window.planned;
    failed += window.failed();
    unserved += window.unserved;
  };
  // Extra short windows add set-up samples (pool threads, perf groups,
  // teardown) without adding latency samples.
  for (int i = 0; i < kSetupReps; ++i) {
    account(run_soak_window(
        rts::support::derive_seed(seed,
                                  static_cast<std::uint64_t>(windows + i)),
        kSoakSetupWindowSeconds, spans));
  }
  for (int w = 0; w < windows; ++w) {
    const SoakWindow window = run_soak_window(
        rts::support::derive_seed(seed, static_cast<std::uint64_t>(w)),
        kSoakWindowSeconds, spans);
    account(window);
    p50_us.push_back(interpolated_percentile_us(window.latency, 0.50));
    served_per_s.push_back(static_cast<double>(window.completed) /
                           window.wall_seconds);
    merged.merge(window.latency);
  }

  return JsonObject()
      .num("trials_per_s", median(served_per_s))
      .num("p50_us", median(p50_us))
      .num("setup_s", median(setup_s))
      .num("peak_rss_mb", peak_rss_mb())
      .integer("attempted", attempted)
      .integer("failed", failed)
      .boolean("correct", correct)
      .integer("unserved", unserved)
      .num("p99_us", interpolated_percentile_us(merged, 0.99))
      .integer("samples", merged.count())
      .nums("window_p50_us", p50_us)
      .nums("setup_samples_s", setup_s)
      .render();
}

int mode_workload(const Args& args) {
  const std::string workload = args.need("workload");
  const std::uint64_t seed = parse_u64(args.need("seed"));
  const double seconds = std::stod(args.need("seconds"));
  SpanRecorder recorder;
  SpanRecorder* spans = args.flags.count("spans") ? &recorder : nullptr;
  std::string json;
  {
    const ScopedSpan root(spans, "perfbench." + workload);
    if (workload == "sim-scalar") {
      json = run_sim_workload(seed, seconds, 0, spans);
    } else if (workload == "sim-batched") {
      json = run_sim_workload(seed, seconds, kBatchLanes, spans);
    } else if (workload == "soak") {
      json = run_soak_workload(seed, seconds, spans);
    } else {
      throw std::runtime_error("unknown workload '" + workload + "'");
    }
  }
  write_spans(spans, args);
  emit(args, json);
  return 0;
}

int mode_layers(const Args& args) {
  const std::uint64_t seed = parse_u64(args.need("seed"));
  const double soak_seconds = std::stod(args.need("soak-seconds"));
  SpanRecorder spans;
  const LayerReport report = run_layer_probes(seed, soak_seconds, spans);
  write_spans(&spans, args);
  JsonObject metrics;
  for (const auto& [name, value] : report.metrics) metrics.num(name, value);
  std::vector<std::string> errors;
  for (const std::string& error : report.errors) {
    errors.push_back(json_string(error));
  }
  emit(args, JsonObject()
                 .boolean("correct", report.correct)
                 .raw("errors", json_array(errors))
                 .raw("metrics", metrics.render())
                 .integer("spans", spans.spans().size())
                 .render());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    const pb::Args args = pb::parse_args(argc, argv);
    if (args.mode == "fingerprint") return pb::mode_fingerprint();
    if (args.mode == "check") return pb::mode_check(args);
    if (args.mode == "workload") return pb::mode_workload(args);
    if (args.mode == "layers") return pb::mode_layers(args);
    throw std::runtime_error("unknown mode '" + args.mode + "'");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rts_perfbench: %s\n", error.what());
    return 2;
  }
}
