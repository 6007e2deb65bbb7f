// Tests for the campaign subsystem: grid expansion, preset registry
// integrity, executor correctness (bitwise equal to the serial harness) and
// scheduling-independence (identical reporter bytes for 1, 2, and 8
// workers), time-budget truncation, and the rts_bench CLI battery (which
// invocations exit 2 before running anything, and how trials cut by the
// step limit are reported).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "campaign/cli.hpp"
#include "campaign/executor.hpp"
#include "campaign/presets.hpp"
#include "campaign/reporter.hpp"
#include "campaign/spec.hpp"
#include "exec/conformance.hpp"
#include "sim/trace.hpp"

namespace rts::campaign {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "test";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kRatRacePath};
  spec.adversaries = {algo::AdversaryId::kUniformRandom,
                      algo::AdversaryId::kRoundRobin};
  spec.ks = {2, 5, 8};
  spec.trials = 9;
  spec.seed = 77;
  return spec;
}

TEST(CampaignSpec, ExpandIsTheFullGridInDeterministicOrder) {
  const CampaignSpec spec = small_spec();
  const std::vector<CellSpec> cells = expand(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 3u);
  // Algorithms outermost, then adversaries, then the k sweep.
  EXPECT_EQ(cells[0].algorithm, algo::AlgorithmId::kLogStarChain);
  EXPECT_EQ(cells[0].adversary, algo::AdversaryId::kUniformRandom);
  EXPECT_EQ(cells[0].k, 2);
  EXPECT_EQ(cells[1].k, 5);
  EXPECT_EQ(cells[3].adversary, algo::AdversaryId::kRoundRobin);
  EXPECT_EQ(cells[6].algorithm, algo::AlgorithmId::kRatRacePath);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
    EXPECT_EQ(cells[i].n, cells[i].k);  // fixed_n = 0 => n = k
    EXPECT_EQ(cells[i].trials, spec.trials);
    EXPECT_EQ(cells[i].seed0, spec.seed);  // kSharedBase
  }
}

TEST(CampaignSpec, PerCellSeedPolicyGivesDistinctStreams) {
  CampaignSpec spec = small_spec();
  spec.seed_policy = SeedPolicy::kPerCell;
  const std::vector<CellSpec> cells = expand(spec);
  std::set<std::uint64_t> seeds;
  for (const CellSpec& cell : cells) seeds.insert(cell.seed0);
  EXPECT_EQ(seeds.size(), cells.size());
}

TEST(CampaignSpec, FixedNOverridesCapacity) {
  CampaignSpec spec = small_spec();
  spec.fixed_n = 64;
  for (const CellSpec& cell : expand(spec)) EXPECT_EQ(cell.n, 64);
}

TEST(CampaignSpec, ValidateCatchesNonsense) {
  EXPECT_TRUE(validate(small_spec()).empty());

  CampaignSpec no_algos = small_spec();
  no_algos.algorithms.clear();
  EXPECT_FALSE(validate(no_algos).empty());

  CampaignSpec bad_k = small_spec();
  bad_k.ks = {0};
  EXPECT_FALSE(validate(bad_k).empty());

  CampaignSpec k_over_n = small_spec();
  k_over_n.fixed_n = 4;  // ks include 5 and 8
  EXPECT_FALSE(validate(k_over_n).empty());
}

TEST(CampaignExecutor, MatchesSerialRunLeManyBitwise) {
  CampaignSpec spec = small_spec();
  ExecutorOptions options;
  options.workers = 3;
  const CampaignResult result = run_campaign(spec, options);
  ASSERT_EQ(result.cells.size(), expand(spec).size());

  for (const CellResult& cell : result.cells) {
    const sim::LeAggregate expected = sim::run_le_many(
        algo::sim_builder(cell.cell.algorithm), cell.cell.n, cell.cell.k,
        algo::adversary_factory(cell.cell.adversary), cell.cell.trials,
        cell.cell.seed0);
    EXPECT_EQ(cell.trials_run, spec.trials);
    EXPECT_EQ(cell.agg.runs, expected.runs);
    EXPECT_EQ(cell.agg.violation_runs, expected.violation_runs);
    // Bitwise: the executor folds the same per-trial values in the same
    // order as the serial loop.
    EXPECT_EQ(cell.agg.max_steps.mean(), expected.max_steps.mean());
    EXPECT_EQ(cell.agg.max_steps.max(), expected.max_steps.max());
    EXPECT_EQ(cell.agg.mean_steps.mean(), expected.mean_steps.mean());
    EXPECT_EQ(cell.agg.total_steps.mean(), expected.total_steps.mean());
    EXPECT_EQ(cell.agg.regs_touched.mean(), expected.regs_touched.mean());
    EXPECT_GT(cell.declared_registers, 0u);
  }
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.sim_steps, 0u);
}

TEST(CampaignExecutor, ReportBytesIdenticalForAnyWorkerCount) {
  const CampaignSpec spec = small_spec();
  std::string reference_jsonl;
  std::string reference_csv;
  for (const int workers : {1, 2, 8}) {
    ExecutorOptions options;
    options.workers = workers;
    const CampaignResult result = run_campaign(spec, options);
    const std::string jsonl = render_to_string(result, ReportFormat::kJsonl);
    const std::string csv = render_to_string(result, ReportFormat::kCsv);
    const std::string table = render_to_string(result, ReportFormat::kTable);
    EXPECT_FALSE(jsonl.empty());
    EXPECT_NE(table.find("logstar"), std::string::npos);
    if (reference_jsonl.empty()) {
      reference_jsonl = jsonl;
      reference_csv = csv;
    } else {
      EXPECT_EQ(jsonl, reference_jsonl) << "workers=" << workers;
      EXPECT_EQ(csv, reference_csv) << "workers=" << workers;
    }
  }
}

TEST(CampaignExecutor, OversubscribedWorkersStillCoverEveryTrial) {
  CampaignSpec spec = small_spec();
  spec.ks = {2};
  spec.trials = 3;  // 4 cells x 3 trials = 12 trials, 16 workers
  ExecutorOptions options;
  options.workers = 16;
  const CampaignResult result = run_campaign(spec, options);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.trials_run, 3);
  }
  EXPECT_FALSE(result.truncated);
}

TEST(CampaignExecutor, TimeBudgetTruncatesAndFlags) {
  CampaignSpec spec = small_spec();
  ExecutorOptions options;
  options.workers = 2;
  options.time_budget_seconds = 1e-9;  // expires before any claim
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_TRUE(result.truncated);
  std::uint64_t run = 0;
  for (const CellResult& cell : result.cells) {
    run += static_cast<std::uint64_t>(cell.trials_run);
  }
  EXPECT_EQ(run, 0u);
  // Truncation must be visible in machine output.
  const std::string jsonl = render_to_string(result, ReportFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"truncated\":true"), std::string::npos);
}

TEST(CampaignExecutor, ProgressCallbackFires) {
  CampaignSpec spec = small_spec();
  spec.ks = {2};
  int calls = 0;
  Progress last;
  ExecutorOptions options;
  options.workers = 2;
  options.progress_interval_seconds = 0.0001;
  options.on_progress = [&](const Progress& progress) {
    ++calls;
    last = progress;
  };
  run_campaign(spec, options);
  EXPECT_GE(calls, 1);
  EXPECT_EQ(last.trials_done, last.trials_total);
  EXPECT_EQ(last.trials_total, 36u);  // 2 algos x 2 advs x 1 k x 9 trials
}

TEST(CampaignPresets, RegistryIsWellFormed) {
  std::set<std::string> names;
  for (const Preset& preset : all_presets()) {
    EXPECT_TRUE(names.insert(preset.name).second)
        << "duplicate preset " << preset.name;
    EXPECT_EQ(validate(preset.spec), "") << preset.name;
    EXPECT_EQ(preset.spec.name, preset.name);
    EXPECT_NE(find_preset(preset.name), nullptr);
  }
  EXPECT_EQ(find_preset("no-such-preset"), nullptr);
}

TEST(CampaignPresets, RatracePresetFreezesTheHistoricalTableParameters) {
  // `rts_bench --preset ratrace` must regenerate the bench_ratrace step
  // table: same algorithms, sweep, trial count, and seed stream.
  const Preset* preset = find_preset("ratrace");
  ASSERT_NE(preset, nullptr);
  EXPECT_EQ(preset->spec.seed, 21u);
  EXPECT_EQ(preset->spec.trials, 100);
  EXPECT_EQ(preset->spec.seed_policy, SeedPolicy::kSharedBase);
  ASSERT_EQ(preset->spec.algorithms.size(), 2u);
  EXPECT_EQ(preset->spec.algorithms[0], algo::AlgorithmId::kRatRace);
  EXPECT_EQ(preset->spec.algorithms[1], algo::AlgorithmId::kRatRacePath);
  EXPECT_EQ(preset->spec.ks, standard_contention_sweep());
}

TEST(CampaignReporter, FormatsParseAndRender) {
  EXPECT_EQ(parse_format("table"), ReportFormat::kTable);
  EXPECT_EQ(parse_format("jsonl"), ReportFormat::kJsonl);
  EXPECT_EQ(parse_format("json"), ReportFormat::kJsonl);
  EXPECT_EQ(parse_format("csv"), ReportFormat::kCsv);
  EXPECT_EQ(parse_format("xml"), std::nullopt);

  CampaignSpec spec = small_spec();
  spec.ks = {2};
  spec.trials = 2;
  const CampaignResult result = run_campaign(spec);
  const std::string jsonl = render_to_string(result, ReportFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"type\":\"campaign\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"cell\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"algorithm\":\"ratrace-path\""), std::string::npos);
  const std::string csv = render_to_string(result, ReportFormat::kCsv);
  EXPECT_NE(csv.find("campaign,algorithm,adversary"), std::string::npos);
  // Header + one row per cell.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(1 + result.cells.size()));
}

TEST(CampaignExecutor, TinyStepLimitShowsUpAsIncompleteRuns) {
  CampaignSpec spec = small_spec();
  spec.algorithms = {algo::AlgorithmId::kRatRacePath};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {8};
  spec.trials = 4;
  spec.step_limit = 5;  // far below any real election
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].incomplete_runs, 4);
  EXPECT_EQ(result.cells[0].error_runs, 0);
  EXPECT_EQ(result.cells[0].trials_run, 4);
  const std::string jsonl = render_to_string(result, ReportFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"incomplete_runs\":4"), std::string::npos);
}

TEST(CampaignExecutor, AdversaryGridActuallyChangesSchedules) {
  // Same algorithm and seed under different schedulers must (generically)
  // give different step counts -- guards against the adversary dimension
  // being silently ignored.
  CampaignSpec spec = small_spec();
  spec.algorithms = {algo::AlgorithmId::kRatRacePath};
  spec.ks = {8};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_NE(result.cells[0].agg.total_steps.mean(),
            result.cells[1].agg.total_steps.mean());
}

TEST(CampaignSpec, BackendAxisExpandsOutermost) {
  CampaignSpec spec = small_spec();
  spec.backends = {exec::Backend::kSim, exec::Backend::kHw};
  const std::vector<CellSpec> cells = expand(spec);
  // 2 algos x 2 adversaries x 3 ks sim cells; the hw half collapses the
  // adversary axis (hw ignores it), leaving 2 algos x 3 ks.
  const std::size_t sim_count = 2u * 2u * 3u;
  ASSERT_EQ(cells.size(), sim_count + 2u * 3u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
    EXPECT_EQ(cells[i].backend,
              i < sim_count ? exec::Backend::kSim : exec::Backend::kHw);
    if (i >= sim_count) {
      EXPECT_EQ(cells[i].adversary, spec.adversaries.front());
    }
  }
  // The sim half of the grid is exactly the sim-only expansion: adding a
  // backend appends cells without renumbering (or reseeding) existing ones.
  CampaignSpec sim_only = small_spec();
  const std::vector<CellSpec> sim_cells = expand(sim_only);
  for (std::size_t i = 0; i < sim_cells.size(); ++i) {
    EXPECT_EQ(cells[i].algorithm, sim_cells[i].algorithm);
    EXPECT_EQ(cells[i].adversary, sim_cells[i].adversary);
    EXPECT_EQ(cells[i].k, sim_cells[i].k);
    EXPECT_EQ(cells[i].seed0, sim_cells[i].seed0);
  }
}

TEST(CampaignSpec, ValidateChecksBackendCapability) {
  CampaignSpec spec = small_spec();
  spec.algorithms = {algo::AlgorithmId::kNativeAtomic};
  EXPECT_NE(validate(spec), "");  // native baseline has no sim backend

  spec.backends = {exec::Backend::kHw};
  spec.ks = {2};
  EXPECT_EQ(validate(spec), "");

  spec.backends = {};
  EXPECT_NE(validate(spec), "");
}

TEST(CampaignSpec, SpecHashIsStableAndSensitive) {
  const CampaignSpec spec = small_spec();
  EXPECT_EQ(spec_hash(spec), spec_hash(spec));

  CampaignSpec reseeded = spec;
  reseeded.seed = spec.seed + 1;
  EXPECT_NE(spec_hash(reseeded), spec_hash(spec));

  CampaignSpec rebackended = spec;
  rebackended.backends = {exec::Backend::kHw};
  EXPECT_NE(spec_hash(rebackended), spec_hash(spec));
}

TEST(CampaignReporter, SimOnlyCampaignsKeepTheHistoricalSchema) {
  // Campaigns a PR-1 binary could express must render the exact historical
  // byte layout: no backend / crash fields anywhere.
  CampaignSpec spec = small_spec();
  spec.ks = {2};
  spec.trials = 2;
  EXPECT_FALSE(extended_schema(spec));
  const CampaignResult result = run_campaign(spec);
  for (const ReportFormat format :
       {ReportFormat::kJsonl, ReportFormat::kCsv, ReportFormat::kTable}) {
    const std::string text = render_to_string(result, format);
    EXPECT_EQ(text.find("backend"), std::string::npos);
    EXPECT_EQ(text.find("crashed"), std::string::npos);
  }
}

TEST(CampaignReporter, CrashAdversaryOptsIntoTheExtendedSchema) {
  CampaignSpec spec;
  spec.name = "crash-test";
  spec.algorithms = {algo::AlgorithmId::kTournament};
  spec.adversaries = {algo::AdversaryId::kCrashAfterOps};
  spec.ks = {8};
  spec.trials = 20;
  spec.seed = 5;
  EXPECT_TRUE(extended_schema(spec));
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_GT(result.cells[0].agg.crashed_runs, 0);
  EXPECT_EQ(result.cells[0].agg.violation_runs, 0);
  const std::string jsonl = render_to_string(result, ReportFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"backend\":\"sim\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"crashed_runs\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"unfinished\":{"), std::string::npos);
  const std::string csv = render_to_string(result, ReportFormat::kCsv);
  EXPECT_NE(csv.find("backend,"), std::string::npos);
  EXPECT_NE(csv.find("crashed_runs"), std::string::npos);
}

TEST(CampaignExecutor, HwBackendRunsThroughTheSamePipeline) {
  CampaignSpec spec;
  spec.name = "hw-test";
  spec.backends = {exec::Backend::kHw};
  spec.algorithms = {algo::AlgorithmId::kTournament,
                     algo::AlgorithmId::kNativeAtomic};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {2};
  spec.trials = 3;
  ExecutorOptions options;
  options.workers = 2;
  const CampaignResult result = run_campaign(spec, options);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.cell.backend, exec::Backend::kHw);
    EXPECT_EQ(cell.trials_run, 3);
    EXPECT_EQ(cell.agg.violation_runs, 0);
    EXPECT_EQ(cell.error_runs, 0);
    EXPECT_GT(cell.declared_registers, 0u);
    EXPECT_GT(cell.agg.max_steps.mean(), 0.0);
  }
  EXPECT_EQ(result.sim_steps, 0u);
  EXPECT_GT(result.hw_steps, 0u);
  const std::string jsonl = render_to_string(result, ReportFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"backend\":\"hw\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"wall_seconds\":{"), std::string::npos);
}

TEST(CampaignExecutor, MixedBackendCampaignKeepsSimCellsDeterministic) {
  CampaignSpec spec;
  spec.name = "mixed";
  spec.backends = {exec::Backend::kSim, exec::Backend::kHw};
  spec.algorithms = {algo::AlgorithmId::kLogStarChain};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {2};
  spec.trials = 4;
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].cell.backend, exec::Backend::kSim);
  EXPECT_EQ(result.cells[1].cell.backend, exec::Backend::kHw);
  // The sim cell must match the serial harness exactly, hw alongside or not.
  const sim::LeAggregate expected = sim::run_le_many(
      algo::sim_builder(algo::AlgorithmId::kLogStarChain), 2, 2,
      algo::adversary_factory(algo::AdversaryId::kUniformRandom), 4,
      spec.seed);
  EXPECT_EQ(result.cells[0].agg.max_steps.mean(), expected.max_steps.mean());
  EXPECT_EQ(result.cells[0].agg.total_steps.mean(),
            expected.total_steps.mean());
}

TEST(CampaignReporter, BenchJsonCarriesSpecHashAndCells) {
  CampaignSpec spec = small_spec();
  spec.ks = {2};
  spec.trials = 2;
  const CampaignResult result = run_campaign(spec);
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* mem = open_memstream(&buffer, &size);
  ASSERT_NE(mem, nullptr);
  report_bench_json(result, mem);
  std::fclose(mem);
  std::string text(buffer, size);
  std::free(buffer);

  char expected_hash[32];
  std::snprintf(expected_hash, sizeof expected_hash, "%016llx",
                static_cast<unsigned long long>(spec_hash(spec)));
  EXPECT_NE(text.find("\"schema\":\"rts-bench-1\""), std::string::npos);
  EXPECT_NE(text.find(std::string("\"spec_hash\":\"") + expected_hash),
            std::string::npos);
  EXPECT_NE(text.find("\"wall_seconds\":"), std::string::npos);
  // One cell object per grid cell.
  std::size_t cells = 0;
  for (std::size_t at = text.find("{\"backend\":"); at != std::string::npos;
       at = text.find("{\"backend\":", at + 1)) {
    ++cells;
  }
  EXPECT_EQ(cells, result.cells.size());
}

TEST(CampaignPresets, NewPresetsAreRegistered) {
  const Preset* crash = find_preset("crash");
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->spec.adversaries.size(), 1u);
  EXPECT_EQ(crash->spec.adversaries[0], algo::AdversaryId::kCrashAfterOps);

  const Preset* hw_smoke = find_preset("hw-smoke");
  ASSERT_NE(hw_smoke, nullptr);
  ASSERT_EQ(hw_smoke->spec.backends.size(), 1u);
  EXPECT_EQ(hw_smoke->spec.backends[0], exec::Backend::kHw);
  bool has_native = false;
  for (const algo::AlgorithmId id : hw_smoke->spec.algorithms) {
    if (id == algo::AlgorithmId::kNativeAtomic) has_native = true;
  }
  EXPECT_TRUE(has_native);
}

TEST(CampaignPresets, FrozenPresetsStaySimOnlyAndCrashFree) {
  // The PR-1 tables must keep rendering the historical schema; only the
  // later presets (crash injection, hw backends, the crash-bearing
  // conformance corpus) opt into the extended one.
  for (const Preset& preset : all_presets()) {
    const bool is_new = std::string_view(preset.name) == "crash" ||
                        std::string_view(preset.name) == "hw-smoke" ||
                        std::string_view(preset.name) == "conformance";
    EXPECT_EQ(extended_schema(preset.spec), is_new) << preset.name;
  }
}


// ---------------------------------------------------------- CLI battery --

/// Runs rts_bench in-process; returns its exit status and what it printed
/// on stdout.
int run_rts_bench(std::vector<std::string> args, std::string* out) {
  args.insert(args.begin(), "rts_bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  testing::internal::CaptureStdout();
  const int status = run_cli(static_cast<int>(args.size()), argv.data());
  *out = testing::internal::GetCapturedStdout();
  return status;
}

/// Every output path of the battery lives in one scratch directory that
/// holds only a copy of a corpus trace (for --minimize), so a run that
/// started would leave something behind.
class CliBattery : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rts-cli-battery-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::filesystem::copy_file(
        std::string(RTS_TEST_DATA_DIR) +
            "/corpus/worstcase-logstar-attack-ge-k10-winner-steps.rtst",
        dir_ / "trace.rtst");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// `args` must exit 2 before any campaign, soak, hunt, minimization or
  /// conformance run starts: nothing on stdout, nothing written.
  void expect_rejected(const std::vector<std::string>& args) {
    std::string invocation;
    for (const std::string& arg : args) invocation += " " + arg;
    std::string out;
    EXPECT_EQ(run_rts_bench(args, &out), 2) << invocation;
    EXPECT_EQ(out, "") << invocation;
    const auto entries = std::distance(
        std::filesystem::directory_iterator(dir_),
        std::filesystem::directory_iterator());
    EXPECT_EQ(entries, 1) << invocation << ": wrote into " << dir_;
  }

  std::filesystem::path dir_;
};

TEST_F(CliBattery, OneWrongModeFlagPerModeIsRejected) {
  // Each flag below is one the mode's code never reads.
  expect_rejected({"--algos", "tournament", "--ks", "2", "--trials", "2",
                   "--json", path("c.jsonl"), "--trial", "0"});
  expect_rejected({"--soak", "0.2", "--rate", "50", "--algos", "tournament",
                   "--ks", "2", "--workers", "7"});
  expect_rejected({"--hunt", path("h"), "--algos", "logstar", "--ks", "4",
                   "--trials", "4", "--workers", "4"});
  expect_rejected({"--minimize", path("trace.rtst"), "--step-limit", "5"});
  expect_rejected({"--conform", std::string(RTS_TEST_DATA_DIR) + "/golden",
                   "--workers", "8"});
}

TEST_F(CliBattery, FlagsThatUsedToBeIgnoredAreRejected) {
  expect_rejected({"--soak", "0.2", "--rate", "50", "--algos", "tournament",
                   "--ks", "2", "--format", "csv", "--csv", path("x.csv"),
                   "--workers", "7", "--pred", "max-steps"});
  expect_rejected({"--conform", std::string(RTS_TEST_DATA_DIR) + "/golden",
                   "--workers", "8", "--batch", "3", "--format", "csv",
                   "--checkpoint", path("ck")});
  expect_rejected({"--hunt", path("h"), "--algos", "logstar", "--ks", "4",
                   "--trials", "4", "--json", path("h.jsonl"), "--workers",
                   "4", "--batch", "8"});
  expect_rejected({"--algos", "tournament", "--ks", "2", "--trials", "2",
                   "--json", path("c.jsonl"), "--trial", "0",
                   "--checkpoint-every", "5"});
  expect_rejected({"--minimize", path("trace.rtst"), "--step-limit", "5"});
  // --checkpoint-every without --checkpoint or --resume.
  expect_rejected({"--algos", "tournament", "--ks", "2", "--trials", "2",
                   "--json", path("c.jsonl"), "--checkpoint-every", "5"});
}

TEST_F(CliBattery, MalformedValuesAreStillRejected) {
  // The CI rejection battery.
  expect_rejected({"--algos", "tournament", "--ks", "banana", "--quiet"});
  expect_rejected({"--algos", "tournament", "--ks", "0", "--quiet"});
  expect_rejected({"--algos", "tournament", "--trials", "-5", "--quiet"});
  expect_rejected({"--algos", "tournament", "--trials", "12junk", "--quiet"});
  expect_rejected({"--soak", "1", "--rate", "100", "--pin", "x,y", "--quiet"});
  expect_rejected({"--soak", "banana", "--rate", "100", "--quiet"});
  expect_rejected({"--soak", "1", "--rate", "100", "--shards", "0", "--quiet"});
  expect_rejected({"--algos", "tournament", "--seed", "-1", "--quiet"});
  expect_rejected({"--algos", "logstar", "--ks", "2", "--trials", "2",
                   "--batch", "65", "--quiet"});
  expect_rejected({"--algos", "logstar", "--ks", "2", "--trials", "2",
                   "--batch", "-1", "--quiet"});
}

TEST_F(CliBattery, ValidInvocationsStillRun) {
  std::string out;
  EXPECT_EQ(run_rts_bench({"--help"}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  const std::vector<std::string> grid = {"--algos", "logstar", "--ks", "2",
                                         "--trials", "1", "--quiet",
                                         "--format", "jsonl"};
  std::string scalar;
  EXPECT_EQ(run_rts_bench(grid, &scalar), 0);
  EXPECT_NE(scalar.find("\"type\":\"cell\""), std::string::npos);
  std::vector<std::string> batched = grid;
  batched.insert(batched.end(), {"--batch", "64"});
  std::string batched_out;
  EXPECT_EQ(run_rts_bench(batched, &batched_out), 0);
  EXPECT_EQ(batched_out, scalar);
}

TEST_F(CliBattery, MinimizeRmrTakesTheRecordedTrialsRmrTotal) {
  // --pred rmr without a threshold replays the trial under the cell's own
  // RMR model to find the recorded total; a replay that dropped the model
  // read 0 and refused to minimize.
  const std::string input = path("rmr.rtst");
  std::filesystem::copy_file(
      std::string(RTS_TEST_DATA_DIR) +
          "/corpus/rmr-abortable-race-abort-k8-cc-rmr.rtst",
      input);
  const std::string output = path("rmr.min.rtst");
  std::string out;
  ASSERT_EQ(run_rts_bench({"--minimize", input, "--trial", "0", "--pred",
                           "rmr", "--out", output},
                          &out),
            0)
      << out;
  sim::CellTrace original;
  sim::CellTrace minimized;
  std::string error;
  ASSERT_TRUE(sim::read_cell_trace_file(input, &original, &error)) << error;
  ASSERT_TRUE(sim::read_cell_trace_file(output, &minimized, &error)) << error;
  ASSERT_EQ(minimized.trials.size(), 1u);
  const sim::TrialTrace& trial = minimized.trials[0];
  EXPECT_LE(trial.actions.size(), original.trials[0].actions.size());
  // The written trace replays (fresh and pooled) to its recorded digest,
  // whose RMR total is nonzero.
  EXPECT_GT(trial.rmr_total, 0u);
  const exec::ConformanceReport report = exec::check_cell(minimized);
  EXPECT_EQ(report.fresh_runs, 1);
  EXPECT_TRUE(report.ok()) << report.mismatches.front();
}

TEST_F(CliBattery, TruncatedTrialsAreReportedNotErrors) {
  std::vector<std::string> args = {"--algos", "logstar", "--ks",   "64",
                                   "--trials", "3",      "--quiet"};
  std::string out;
  // No trial hits the default limit: the table keeps its historical bytes.
  EXPECT_EQ(run_rts_bench(args, &out), 0);
  EXPECT_EQ(out,
            "\n=== adhoc: random scheduling ===\n"
            "algorithm  k   n   E[max steps]   p50   p95   p99  p999  max  "
            "E[mean steps]  E[regs touched]  declared regs  viol  trials  \n"
            "-----------------------------------------------------------------"
            "----------------------------------------------------------\n"
            "logstar    64  64  17.33 +-10.45  12.0  28.0  28   28    28   "
            "1.70           12.0             416            0     3       \n");

  // Every trial hits a 50-step limit: still exit 0, but the table grows an
  // `incomplete` column and stderr names the cell, even under --quiet.
  args.insert(args.end(), {"--step-limit", "50"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_rts_bench(args, &out), 0);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("trials  incomplete  \n"), std::string::npos) << out;
  EXPECT_NE(out.find(" 3       3           \n"), std::string::npos) << out;
  EXPECT_EQ(err,
            "rts_bench: [adhoc] logstar k=64: 3 trials hit the step limit "
            "(50 steps)\n");
}

}  // namespace
}  // namespace rts::campaign
