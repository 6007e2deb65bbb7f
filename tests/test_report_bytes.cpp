// Byte pins for every file the program writes as JSON (plus campaign csv):
// synthetic results that reach every conditional branch of the emitters
// are rendered and compared, byte for byte, with the files in tests/pins/.
//
// The results are built by hand -- trial summaries folded through the
// real exec::accumulate_trial, fixed wall_seconds, fixed perf counters --
// so the rendered bytes depend only on the emitters.  Between them the
// fixtures cover the plain, extended, rmr and chaos campaign schemas,
// errored cells, truncated and interrupted runs, valid and invalid perf
// counters, empty latency histograms and hw wall_seconds.
//
// A mismatch means an emitter changed its bytes.  If that is intended,
// regenerate the pin from the new output and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/executor.hpp"
#include "campaign/hunt.hpp"
#include "campaign/reporter.hpp"
#include "campaign/soak.hpp"
#include "exec/backend.hpp"
#include "fault/checkpoint.hpp"
#include "fault/plan.hpp"

namespace rts::campaign {
namespace {

using algo::AdversaryId;
using algo::AlgorithmId;
using exec::Backend;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string pin(const char* name) {
  return read_file(std::string(RTS_TEST_DATA_DIR) + "/pins/" + name);
}

template <typename Fn>
std::string capture(Fn&& emit) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* mem = open_memstream(&buffer, &size);
  emit(mem);
  std::fclose(mem);
  std::string out(buffer, size);
  std::free(buffer);
  return out;
}

exec::TrialSummary trial(Backend backend, int k, std::uint64_t max_steps,
                         std::uint64_t total_steps, std::size_t regs,
                         std::uint64_t latency) {
  exec::TrialSummary t;
  t.backend = backend;
  t.k = k;
  t.max_steps = max_steps;
  t.total_steps = total_steps;
  t.regs_touched = regs;
  t.declared_registers = 3 * static_cast<std::size_t>(k);
  t.latency = latency;
  return t;
}

CellResult cell(int index, Backend backend, AlgorithmId algorithm,
                AdversaryId adversary, int k, int trials) {
  CellResult result;
  result.cell.index = index;
  result.cell.backend = backend;
  result.cell.algorithm = algorithm;
  result.cell.adversary = adversary;
  result.cell.n = k;
  result.cell.k = k;
  result.cell.trials = trials;
  result.cell.seed0 = 1000 + static_cast<std::uint64_t>(index);
  result.declared_registers = 3 * static_cast<std::size_t>(k);
  return result;
}

void fold(CellResult* result, const exec::TrialSummary& summary) {
  exec::accumulate_trial(result->agg, summary);
  ++result->trials_run;
  if (!summary.completed) ++result->incomplete_runs;
}

/// Plain sim schema: two cells, one with errored and incomplete trials,
/// one that never ran; the campaign was cut by its time budget.
CampaignResult plain_result() {
  CampaignResult result;
  result.spec.name = "pin \"plain\"";
  result.spec.algorithms = {AlgorithmId::kLogStarChain,
                            AlgorithmId::kRatRacePath};
  result.spec.adversaries = {AdversaryId::kUniformRandom};
  result.spec.ks = {4, 16};
  result.spec.trials = 5;
  result.spec.seed = 77;
  result.truncated = true;
  result.wall_seconds = 0.25;
  result.workers_used = 2;
  result.sim_steps = 4321;

  CellResult a = cell(0, Backend::kSim, AlgorithmId::kLogStarChain,
                      AdversaryId::kUniformRandom, 4, 5);
  fold(&a, trial(Backend::kSim, 4, 7, 19, 5, 7));
  fold(&a, trial(Backend::kSim, 4, 11, 23, 6, 11));
  exec::TrialSummary cut = trial(Backend::kSim, 4, 50, 120, 9, 50);
  cut.completed = false;
  cut.unfinished = 2;
  fold(&a, cut);
  a.error_runs = 2;
  a.first_errors = {"replay diverged: \"digest\" mismatch,\nat trial 3",
                    "second\treason"};
  result.cells.push_back(a);

  CellResult b = cell(1, Backend::kSim, AlgorithmId::kRatRacePath,
                      AdversaryId::kUniformRandom, 16, 5);
  result.cells.push_back(b);  // never ran: empty histogram, zero trials
  return result;
}

/// Extended + rmr + chaos: a crashing adversary, an rmr axis, an hw
/// backend with measured perf counters, a fault plan and deadlines; the
/// run was interrupted.
CampaignResult extended_result() {
  CampaignResult result;
  result.spec.name = "pin-extended";
  result.spec.backends = {Backend::kSim, Backend::kHw};
  result.spec.algorithms = {AlgorithmId::kCombinedSift};
  result.spec.adversaries = {AdversaryId::kCrashAfterOps};
  result.spec.rmrs = {rmr::RmrModel::kCC};
  result.spec.ks = {8};
  result.spec.trials = 3;
  result.spec.seed = 2012;
  result.interrupted = true;
  result.fault_spec = "stall:p=0.3,us=3000;noshow:p=0.15";
  result.deadlines = true;
  result.faults.stalls = 4;
  result.faults.no_shows = 2;
  result.faults.delays = 1;
  result.faults.worker_deaths = 9;  // never rendered
  result.wall_seconds = 1.5;
  result.workers_used = 4;
  result.sim_steps = 999;
  result.hw_steps = 12345;

  CellResult sim = cell(0, Backend::kSim, AlgorithmId::kCombinedSift,
                        AdversaryId::kCrashAfterOps, 8, 3);
  sim.cell.rmr = rmr::RmrModel::kCC;
  for (int t = 0; t < 3; ++t) {
    exec::TrialSummary s =
        trial(Backend::kSim, 8, 13 + 2 * t, 60 + 7 * t, 12 + t, 13 + 2 * t);
    s.rmr_total = 40 + 3 * static_cast<std::uint64_t>(t);
    s.rmr_max = 9 + static_cast<std::uint64_t>(t);
    s.aborted = t == 1 ? 1 : 0;
    s.crash_free = t != 2;
    s.unfinished = t == 2 ? 1 : 0;
    fold(&sim, s);
  }
  result.cells.push_back(sim);

  CellResult hw = cell(1, Backend::kHw, AlgorithmId::kCombinedSift,
                       AdversaryId::kCrashAfterOps, 8, 3);
  hw.cell.rmr = rmr::RmrModel::kCC;
  for (int t = 0; t < 3; ++t) {
    exec::TrialSummary s = trial(Backend::kHw, 8, 30 + t, 200 + t, 20, 0);
    s.wall_seconds = 1.25e-5 * (t + 1);
    s.latency = 12500 * static_cast<std::uint64_t>(t + 1);
    s.retries = t;
    s.timed_out = t == 2;
    fold(&hw, s);
  }
  hw.perf.samples = 24;
  hw.perf.value = {100000, 250000, 77, 5};
  hw.perf.valid = {true, true, false, true};
  result.cells.push_back(hw);
  return result;
}

/// Hw only, perf counters unavailable, nothing completed: the sim latency
/// block of the bench document and every perf block are absent.
CampaignResult hw_only_result() {
  CampaignResult result;
  result.spec.name = "pin-hw";
  result.spec.backends = {Backend::kHw};
  result.spec.algorithms = {AlgorithmId::kNativeAtomic};
  result.spec.adversaries = {AdversaryId::kUniformRandom};
  result.spec.ks = {2};
  result.spec.trials = 2;
  result.wall_seconds = 0.0;
  CellResult hw = cell(0, Backend::kHw, AlgorithmId::kNativeAtomic,
                       AdversaryId::kUniformRandom, 2, 2);
  hw.perf.samples = 4;
  hw.perf.value = {1, 2, 3, 4};  // all invalid: never rendered
  result.cells.push_back(hw);
  return result;
}

std::vector<CampaignResult> campaign_results() {
  return {plain_result(), extended_result(), hw_only_result()};
}

std::string render_all(void (*emit)(const CampaignResult&, std::FILE*)) {
  std::string out;
  for (const CampaignResult& result : campaign_results()) {
    out += capture([&](std::FILE* f) { emit(result, f); });
  }
  return out;
}

TEST(ReportBytes, Jsonl) {
  EXPECT_EQ(render_all(report_jsonl), pin("report.jsonl"));
}

TEST(ReportBytes, Csv) {
  std::string out = render_all(
      [](const CampaignResult& r, std::FILE* f) { report_csv(r, f); });
  // The CLI's shared-sink column set: extended and rmr columns forced on.
  out += capture([](std::FILE* f) {
    report_csv(plain_result(), f, /*force_extended=*/true, /*force_rmr=*/true);
  });
  EXPECT_EQ(out, pin("report.csv"));
}

TEST(ReportBytes, BenchJson) {
  EXPECT_EQ(render_all(report_bench_json), pin("bench.json"));
}

TEST(ReportBytes, TraceManifest) {
  std::string out = render_all([](const CampaignResult& r, std::FILE* f) {
    report_trace_manifest(r, f);
  });
  const std::vector<int> recorded = {1, 0};
  out += capture([&](std::FILE* f) {
    report_trace_manifest(extended_result(), f, &recorded);
  });
  EXPECT_EQ(out, pin("trace_manifest.json"));
}

ShardStats shard(std::uint64_t base, bool with_latency, bool with_perf) {
  ShardStats s;
  s.dispatched = base + 10;
  s.completed = with_latency ? base + 7 : 0;
  s.timed_out = 2;
  s.retried = 3;
  s.shed = base == 0 ? 1 : 0;
  s.violations = 0;
  s.incomplete = 1;
  s.max_queue = base + 4;
  s.faults.stalls = base + 1;
  s.faults.no_shows = 1;
  s.faults.delays = 2;
  if (with_latency) {
    for (std::uint64_t i = 0; i < s.completed; ++i) {
      s.latency.record(20000 + 3000 * i + base);
    }
  }
  if (with_perf) {
    s.perf.samples = base + 7;
    s.perf.value = {5000 + base, 9000, 12, 3};
    s.perf.valid = {true, true, true, false};
  }
  return s;
}

/// Chaos soak: deadline, shedding and a fault plan; the first algorithm
/// ran two shards (one with no completed election and no counters), the
/// second was interrupted with nothing completed at all.
std::string render_soak() {
  SoakSpec spec;
  spec.name = "pin-soak";
  spec.k = 4;
  spec.rate = 1234.5;
  spec.duration_seconds = 2.5;
  spec.seed = 2028;
  spec.shards = 2;
  spec.deadline_ns = 1'500'000;
  spec.max_retries = 2;
  spec.shed_backlog = 32;
  spec.faults = *fault::FaultPlan::parse("stall:p=0.3,us=3000;noshow:p=0.15",
                                         nullptr);
  std::vector<SoakResult> results(2);
  results[0].algorithm = AlgorithmId::kTournament;
  results[0].k = 4;
  results[0].n = 4;
  results[0].target_rate = spec.rate;
  results[0].duration_seconds = spec.duration_seconds;
  results[0].wall_seconds = 2.625;
  results[0].planned = 3086;
  results[0].max_backlog = 40;
  results[0].degraded = true;
  merge_shard_stats({shard(0, true, true), shard(5, false, false)},
                    &results[0]);
  results[1].algorithm = AlgorithmId::kNativeAtomic;
  results[1].k = 4;
  results[1].n = 6;
  results[1].target_rate = spec.rate;
  results[1].duration_seconds = spec.duration_seconds;
  results[1].wall_seconds = 0.5;
  results[1].planned = 3086;
  results[1].interrupted = true;
  merge_shard_stats({shard(1, false, true)}, &results[1]);

  std::string out =
      capture([&](std::FILE* f) { report_soak_jsonl(spec, results, f); });
  // The plain header: no deadline, no shedding, no plan, no results.
  SoakSpec plain;
  out += capture([&](std::FILE* f) { report_soak_jsonl(plain, {}, f); });
  return out;
}

TEST(ReportBytes, SoakJsonl) { EXPECT_EQ(render_soak(), pin("soak.jsonl")); }

class ReportFiles : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rts-report-bytes-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

HuntedCell hunted(int k, rmr::RmrModel model, const std::string& file) {
  HuntedCell h;
  h.cell.index = k;
  h.cell.n = k + 1;
  h.cell.k = k;
  h.cell.rmr = model;
  h.campaign = "worstcase";
  h.algorithm = "logstar";
  h.adversary = "attack-ge";
  h.predicate = "max-steps>=12";
  h.file = file;
  h.worst_trial = 3;
  h.metric = 12;
  h.stats.original_actions = 480;
  h.stats.minimized_actions = 37;
  h.stats.evals = 211;
  return h;
}

TEST_F(ReportFiles, CorpusManifest) {
  std::vector<HuntedCell> cells = {
      hunted(10, rmr::RmrModel::kNone, "out/a-k10-max-steps.rtst"),
      hunted(4, rmr::RmrModel::kNone, ""),  // skipped: not listed
      hunted(8, rmr::RmrModel::kDSM, "b-k8-dsm-rmr.rtst")};
  cells[1].note = "hw backend is unrecordable";
  const std::string path = (dir_ / "MANIFEST.json").string();
  write_corpus_manifest(path, cells);
  EXPECT_EQ(read_file(path), pin("corpus_MANIFEST.json"));
  write_corpus_manifest(path, {});
  EXPECT_EQ(read_file(path), pin("corpus_MANIFEST_empty.json"));
}

TEST_F(ReportFiles, CheckpointManifest) {
  std::string error;
  ASSERT_TRUE(fault::write_checkpoint_manifest(
      dir_.string(), "chaos", 0x00c0ffee12345678ull, 40, 12, &error))
      << error;
  EXPECT_EQ(read_file((dir_ / "CHECKPOINT.json").string()),
            pin("CHECKPOINT.json"));
}

}  // namespace
}  // namespace rts::campaign
