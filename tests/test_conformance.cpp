// Tests for the differential conformance harness (exec/conformance.hpp) and
// the campaign-level record/replay wiring:
//
//  * golden .rtst traces checked into tests/golden/ must replay cleanly
//    through fresh sim, pooled sim, and the scheduled hw drive -- the
//    file-backed regression oracle for the whole execution stack,
//  * freshly recorded cells must conform the same way,
//  * tampered traces must be caught, never absorbed,
//  * a campaign recorded with ExecutorOptions::record_dir and replayed with
//    replay_dir must reproduce identical reporter bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "campaign/cli.hpp"
#include "campaign/executor.hpp"
#include "campaign/reporter.hpp"
#include "exec/conformance.hpp"
#include "sim/adversaries.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"

namespace rts::exec {
namespace {

std::string golden_dir() { return std::string(RTS_TEST_DATA_DIR) + "/golden"; }

std::string fresh_temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "rts-" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Records one (algorithm, adversary) stream the way the campaign executor
/// does, returning a self-contained cell trace.
sim::CellTrace record_cell(algo::AlgorithmId algorithm,
                           algo::AdversaryId adversary, int n, int k,
                           int trials, std::uint64_t seed0) {
  const sim::LeBuilder builder = algo::sim_builder(algorithm);
  const sim::AdversaryFactory factory = algo::adversary_factory(adversary);
  sim::CellTrace cell;
  cell.campaign = "test";
  cell.algorithm = algo::info(algorithm).name;
  cell.adversary = algo::info(adversary).name;
  cell.n = static_cast<std::uint32_t>(n);
  cell.k = static_cast<std::uint32_t>(k);
  cell.seed0 = seed0;
  cell.step_limit = sim::Kernel::Options{}.step_limit;
  for (int t = 0; t < trials; ++t) {
    sim::TrialTrace trial;
    trial.trial_seed = sim::trial_seed(seed0, t);
    trial.adversary_seed = sim::adversary_seed(trial.trial_seed);
    const auto inner = factory(trial.adversary_seed);
    sim::RecordingAdversary recorder(*inner, &trial.actions);
    const sim::LeRunResult result =
        sim::run_le_once(builder, n, k, recorder, trial.trial_seed);
    sim::fill_trace_result(trial, result);
    cell.trials.push_back(std::move(trial));
  }
  return cell;
}

TEST(Conformance, GoldenTracesConformAcrossAllPaths) {
  // The acceptance oracle: every checked-in golden trace replays
  // bit-for-bit through the fresh and pooled sim paths and -- all golden
  // cells are hw-expressible -- through the scheduled hw drive on real
  // std::atomic registers.  A failure here means the execution stack no
  // longer reproduces schedules it once produced: a behavioral regression,
  // or an intentional change that requires regenerating the goldens (see
  // tests/golden/README.md).
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(golden_dir())) {
    if (entry.path().extension() == ".rtst") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty()) << "no golden traces in " << golden_dir();

  for (const std::string& path : paths) {
    sim::CellTrace cell;
    std::string error;
    ASSERT_TRUE(sim::read_cell_trace_file(path, &cell, &error))
        << path << ": " << error;
    ASSERT_FALSE(cell.trials.empty()) << path;
    EXPECT_TRUE(hw_expressible(cell)) << path;

    const ConformanceReport report = check_cell(cell);
    EXPECT_TRUE(report.ok()) << path << ": "
                             << (report.mismatches.empty()
                                     ? ""
                                     : report.mismatches.front());
    EXPECT_EQ(report.trials_checked,
              static_cast<int>(cell.trials.size()))
        << path;
    EXPECT_EQ(report.fresh_runs, report.trials_checked) << path;
    EXPECT_EQ(report.pooled_runs, report.trials_checked) << path;
    EXPECT_EQ(report.hw_runs, report.trials_checked) << path;
  }
}

TEST(Conformance, FreshlyRecordedCellsConform) {
  // Same property, source-independent: anything recorded now conforms now.
  // Includes a crash-schedule cell (abandoned participants on all three
  // paths) and the combiner (child-fiber ops on the hw drive).
  const struct {
    algo::AlgorithmId algorithm;
    algo::AdversaryId adversary;
  } cases[] = {
      {algo::AlgorithmId::kLogStarChain, algo::AdversaryId::kUniformRandom},
      {algo::AlgorithmId::kCombinedSift, algo::AdversaryId::kCrashAfterOps},
      {algo::AlgorithmId::kRatRacePath, algo::AdversaryId::kRoundRobin},
  };
  for (const auto& c : cases) {
    const sim::CellTrace cell =
        record_cell(c.algorithm, c.adversary, 6, 6, 4, /*seed0=*/321);
    const ConformanceReport report = check_cell(cell);
    const std::string label = cell.algorithm + " / " + cell.adversary;
    EXPECT_TRUE(report.ok())
        << label << ": "
        << (report.mismatches.empty() ? "" : report.mismatches.front());
    EXPECT_EQ(report.hw_runs, 4) << label;
  }
}

TEST(Conformance, TamperedSchedulesAndDigestsAreCaught) {
  sim::CellTrace cell = record_cell(algo::AlgorithmId::kTournament,
                                    algo::AdversaryId::kUniformRandom, 5, 5,
                                    2, /*seed0=*/9);
  {
    // A digest that disagrees with the actual replay: every path reports.
    sim::CellTrace tampered = cell;
    tampered.trials[0].total_steps += 1;
    const ConformanceReport report = check_cell(tampered);
    EXPECT_FALSE(report.ok());
  }
  {
    // A truncated schedule: the sim replays throw (captured as
    // mismatches), and with no trusted sim reference the hw drive for that
    // trial is skipped rather than trusted blindly.
    sim::CellTrace tampered = cell;
    tampered.trials[1].actions.resize(3);
    const ConformanceReport report = check_cell(tampered);
    EXPECT_FALSE(report.ok());
    EXPECT_LT(report.hw_runs, report.trials_checked);
  }
}

TEST(Conformance, MaxTrialsAndPathToggles) {
  const sim::CellTrace cell = record_cell(algo::AlgorithmId::kSiftCascade,
                                          algo::AdversaryId::kUniformRandom,
                                          6, 6, 5, /*seed0=*/13);
  ConformanceOptions options;
  options.max_trials = 2;
  options.hw = false;
  const ConformanceReport report = check_cell(cell, options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.trials_checked, 2);
  EXPECT_EQ(report.hw_runs, 0);
}

TEST(RecordReplayCampaign, ReporterBytesAreBitwiseIdentical) {
  // The CLI acceptance path in miniature: --record then --replay of one
  // campaign (random + crash adversaries, two algorithms) must reproduce
  // the recorded run's reporter bytes exactly, through every reporter.
  campaign::CampaignSpec spec;
  spec.name = "rr-test";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kCombinedSift};
  spec.adversaries = {algo::AdversaryId::kUniformRandom,
                      algo::AdversaryId::kCrashAfterOps};
  spec.ks = {2, 6};
  spec.trials = 5;
  spec.seed = 2025;
  spec.seed_policy = campaign::SeedPolicy::kPerCell;

  const std::string dir = fresh_temp_dir("record-replay");
  campaign::ExecutorOptions record;
  record.workers = 3;
  record.record_dir = dir;
  const campaign::CampaignResult recorded =
      campaign::run_campaign(spec, record);
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" +
                                      sim::cell_trace_filename(0)));

  campaign::ExecutorOptions replay;
  replay.workers = 2;  // worker count must not matter, as ever
  replay.replay_dir = dir;
  const campaign::CampaignResult replayed =
      campaign::run_campaign(spec, replay);
  for (const campaign::CellResult& cell : replayed.cells) {
    EXPECT_EQ(cell.error_runs, 0)
        << "cell " << cell.cell.index << ": "
        << (cell.first_errors.empty() ? "" : cell.first_errors.front());
  }
  EXPECT_EQ(campaign::render_to_string(recorded, campaign::ReportFormat::kJsonl),
            campaign::render_to_string(replayed, campaign::ReportFormat::kJsonl));
  EXPECT_EQ(campaign::render_to_string(recorded, campaign::ReportFormat::kCsv),
            campaign::render_to_string(replayed, campaign::ReportFormat::kCsv));
  EXPECT_EQ(campaign::render_to_string(recorded, campaign::ReportFormat::kTable),
            campaign::render_to_string(replayed, campaign::ReportFormat::kTable));

  // A drifted spec must refuse to replay at all (validated before running).
  campaign::CampaignSpec drifted = spec;
  drifted.seed = 2026;
  EXPECT_THROW(campaign::run_campaign(drifted, replay), Error);

  // A trace whose digest was falsified replays loudly: errored trials.
  sim::CellTrace cell;
  std::string error;
  const std::string cell0 = dir + "/" + sim::cell_trace_filename(0);
  ASSERT_TRUE(sim::read_cell_trace_file(cell0, &cell, &error)) << error;
  cell.trials[0].max_steps += 1;
  ASSERT_TRUE(sim::write_cell_trace_file(cell0, cell, &error)) << error;
  const campaign::CampaignResult poisoned =
      campaign::run_campaign(spec, replay);
  EXPECT_EQ(poisoned.cells[0].error_runs, 1);
  ASSERT_FALSE(poisoned.cells[0].first_errors.empty());
  EXPECT_NE(poisoned.cells[0].first_errors[0].find("replay mismatch"),
            std::string::npos);

  std::filesystem::remove_all(dir);
}

int run_rts_bench(std::vector<std::string> args) {
  args.insert(args.begin(), "rts_bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  return campaign::run_cli(static_cast<int>(args.size()), argv.data());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(RecordReplayCampaign, ErroredTrialsReportTheirReasons) {
  // A replay whose recorded digest was altered errors exactly one trial.
  // The reason must reach the jsonl (`errors`), the table (an error column
  // that appears only then), and rts_bench's exit status; the unaltered
  // run keeps its error-free bytes and exits 0.
  const std::string dir = fresh_temp_dir("errored-trials");
  const std::vector<std::string> grid = {"--algos", "logstar", "--ks", "4",
                                         "--trials", "3", "--seed", "31",
                                         "--quiet", "--format", "csv"};
  std::vector<std::string> record = grid;
  record.insert(record.end(), {"--record", dir + "/rec", "--json",
                               dir + "/clean.jsonl"});
  ASSERT_EQ(run_rts_bench(record), 0);
  const std::string clean = read_file(dir + "/clean.jsonl");
  EXPECT_NE(clean.find("\"error_runs\":0,"), std::string::npos);
  EXPECT_EQ(clean.find("\"errors\""), std::string::npos);

  sim::CellTrace cell;
  std::string error;
  const std::string cell0 =
      dir + "/rec/adhoc/" + sim::cell_trace_filename(0);
  ASSERT_TRUE(sim::read_cell_trace_file(cell0, &cell, &error)) << error;
  cell.trials[1].max_steps += 1;
  ASSERT_TRUE(sim::write_cell_trace_file(cell0, cell, &error)) << error;

  std::vector<std::string> replay = grid;
  replay.insert(replay.end(), {"--replay", dir + "/rec", "--json",
                               dir + "/poisoned.jsonl"});
  EXPECT_EQ(run_rts_bench(replay), campaign::kExitErroredTrials);
  const std::string poisoned = read_file(dir + "/poisoned.jsonl");
  const std::size_t errors =
      poisoned.find("\"error_runs\":1,\"errors\":[\"");
  ASSERT_NE(errors, std::string::npos) << poisoned;
  EXPECT_NE(poisoned.find("replay mismatch", errors), std::string::npos);

  campaign::CampaignSpec spec;
  spec.name = "adhoc";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {4};
  spec.trials = 3;
  spec.seed = 31;
  campaign::ExecutorOptions options;
  options.replay_dir = dir + "/rec/adhoc";
  const std::string table = campaign::render_to_string(
      campaign::run_campaign(spec, options), campaign::ReportFormat::kTable);
  EXPECT_NE(table.find("first error"), std::string::npos) << table;
  EXPECT_NE(table.find("replay mismatch"), std::string::npos) << table;
  const std::string clean_table = campaign::render_to_string(
      campaign::run_campaign(spec), campaign::ReportFormat::kTable);
  EXPECT_EQ(clean_table.find("first error"), std::string::npos);

  // csv grows a trailing `first_error` column, RFC 4180-quoted; error-free
  // csv keeps its bytes (no such column).
  campaign::CampaignResult errored = campaign::run_campaign(spec, options);
  const std::string csv =
      campaign::render_to_string(errored, campaign::ReportFormat::kCsv);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header.substr(header.size() - 12), ",first_error") << csv;
  EXPECT_NE(csv.find("replay mismatch"), std::string::npos) << csv;
  const std::string clean_csv = campaign::render_to_string(
      campaign::run_campaign(spec), campaign::ReportFormat::kCsv);
  EXPECT_EQ(clean_csv.find("first_error"), std::string::npos);
  ASSERT_EQ(errored.cells.size(), 1u);
  errored.cells[0].first_errors = {"mismatch at \"step\" 3, pid 1"};
  const std::string quoted =
      campaign::render_to_string(errored, campaign::ReportFormat::kCsv);
  const std::string row = quoted.substr(quoted.find('\n') + 1);
  EXPECT_EQ(row.substr(row.size() - 33),
            ",\"mismatch at \"\"step\"\" 3, pid 1\"\n")
      << quoted;
  errored.cells[0].first_errors = {"no-comma reason"};
  EXPECT_NE(campaign::render_to_string(errored, campaign::ReportFormat::kCsv)
                .find(",no-comma reason\n"),
            std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(RecordReplayCampaign, RecordingDoesNotChangeReporterBytes) {
  // Recording must be pure observation: a recorded run's reporter bytes
  // equal a plain run's, so --record can be bolted onto any campaign
  // without invalidating its numbers.
  campaign::CampaignSpec spec;
  spec.name = "observe-test";
  spec.algorithms = {algo::AlgorithmId::kRatRacePath};
  spec.adversaries = {algo::AdversaryId::kCrashAfterOps};
  spec.ks = {4};
  spec.trials = 6;
  spec.seed = 77;

  const campaign::CampaignResult plain = campaign::run_campaign(spec);
  const std::string dir = fresh_temp_dir("record-observe");
  campaign::ExecutorOptions record;
  record.record_dir = dir;
  const campaign::CampaignResult recorded =
      campaign::run_campaign(spec, record);
  EXPECT_EQ(campaign::render_to_string(plain, campaign::ReportFormat::kJsonl),
            campaign::render_to_string(recorded,
                                       campaign::ReportFormat::kJsonl));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rts::exec
