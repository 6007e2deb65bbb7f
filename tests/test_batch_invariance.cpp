// Batched-vs-scalar invariance: the load-bearing contract of the batch
// engine (sim/batch.hpp + algo/batch.cpp) is that for every *eligible*
// (algorithm, adversary) cell it reproduces the scalar trial path's
// exec::TrialSummary byte for byte, trial for trial -- the same discipline
// that keeps fresh and pooled kernels interchangeable.  These tests
// byte-compare the checkpoint codec serialization of both paths across the
// eligible catalogue (including crashing schedules and step-limit-starved
// trials), check that ineligible pairs refuse a stream, that any trial
// order yields the same summaries, and property-test the register-bank
// reset and the pid-ordered runnable vector both sim engines schedule from.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/batch.hpp"
#include "algo/registry.hpp"
#include "campaign/executor.hpp"
#include "campaign/reporter.hpp"
#include "campaign/spec.hpp"
#include "exec/backend.hpp"
#include "exec/workspace.hpp"
#include "rmr/model.hpp"
#include "sim/batch.hpp"
#include "sim/runnable.hpp"
#include "sim/runner.hpp"
#include "support/rng.hpp"

namespace rts {
namespace {

constexpr std::uint64_t kSeed0 = 0xba7c4ed5eedULL;

std::string summary_bytes(const exec::TrialSummary& summary) {
  std::string out;
  exec::append_trial_summary(out, summary);
  return out;
}

/// Scalar reference: trials [0, trials) through a pooled workspace, exactly
/// the campaign executor's sim path.
std::vector<exec::TrialSummary> scalar_summaries(
    algo::AlgorithmId algorithm, algo::AdversaryId adversary, int n, int k,
    int trials, sim::Kernel::Options options) {
  exec::TrialWorkspace workspace;
  const sim::LeBuilder builder = algo::sim_builder(algorithm);
  const sim::AdversaryFactory factory = algo::adversary_factory(adversary);
  std::vector<exec::TrialSummary> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial) {
    out.push_back(sim::summarize_trial(workspace.run_le_trial(
        /*key=*/0, builder, n, k, factory, trial, kSeed0, options)));
  }
  return out;
}

std::vector<exec::TrialSummary> batch_summaries(algo::AlgorithmId algorithm,
                                                algo::AdversaryId adversary,
                                                int n, int k, int trials,
                                                int lanes,
                                                std::uint64_t step_limit) {
  auto stream = algo::make_batch_stream(algorithm, adversary, n, k, lanes,
                                        kSeed0, step_limit);
  EXPECT_NE(stream, nullptr);
  std::vector<exec::TrialSummary> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial) {
    out.push_back(stream->run_trial(trial));
  }
  return out;
}

std::vector<algo::AlgorithmId> eligible_algorithms() {
  std::vector<algo::AlgorithmId> out;
  for (const algo::AlgoInfo& info : algo::all_algorithms()) {
    if (algo::batch_supported(info.id)) out.push_back(info.id);
  }
  return out;
}

std::vector<algo::AdversaryId> eligible_adversaries() {
  std::vector<algo::AdversaryId> out;
  for (const algo::AdversaryInfo& info : algo::all_adversaries()) {
    if (algo::batch_eligible(info.id)) out.push_back(info.id);
  }
  return out;
}

void expect_bitwise_identical(algo::AlgorithmId algorithm,
                              algo::AdversaryId adversary, int n, int k,
                              int trials, int lanes,
                              std::uint64_t step_limit) {
  sim::Kernel::Options options;
  options.step_limit = step_limit;
  const auto scalar =
      scalar_summaries(algorithm, adversary, n, k, trials, options);
  const auto batched = batch_summaries(algorithm, adversary, n, k, trials,
                                       lanes, step_limit);
  ASSERT_EQ(scalar.size(), batched.size());
  const std::string label = std::string(algo::info(algorithm).name) + " x " +
                            algo::info(adversary).name +
                            " k=" + std::to_string(k) +
                            " lanes=" + std::to_string(lanes);
  for (std::size_t trial = 0; trial < scalar.size(); ++trial) {
    ASSERT_EQ(summary_bytes(scalar[trial]), summary_bytes(batched[trial]))
        << label << " trial " << trial;
  }
}

TEST(BatchInvariance, EligibleCatalogueIsEnumeratedAsExpected) {
  // The eligibility sets are part of the contract: silently dropping an
  // algorithm or adversary from the batch path would weaken every grid
  // below without failing it.
  EXPECT_EQ(eligible_algorithms().size(), 6u);
  EXPECT_EQ(eligible_adversaries().size(), 4u);
}

TEST(BatchInvariance, EligibleAdversariesAreTheObliviousStepAndCrashOnes) {
  // The catalogue predicate (oblivious, abort-free, seed-constructible)
  // selects exactly these four schedulers; a new catalogue entry that
  // changes the set must be looked at here.
  const std::vector<algo::AdversaryId> expected = {
      algo::AdversaryId::kUniformRandom, algo::AdversaryId::kRoundRobin,
      algo::AdversaryId::kSequential, algo::AdversaryId::kCrashAfterOps};
  EXPECT_EQ(eligible_adversaries(), expected);
}

TEST(BatchInvariance, BatchedMatchesScalarAcrossEligibleCatalogue) {
  constexpr int kTrials = 10;  // 10 = 8 + 2: exercises a partial last block
  constexpr int kLanes = 8;
  for (const algo::AlgorithmId algorithm : eligible_algorithms()) {
    for (const algo::AdversaryId adversary : eligible_adversaries()) {
      for (const int k : {2, 8, 33}) {
        expect_bitwise_identical(algorithm, adversary, /*n=*/k, k, kTrials,
                                 kLanes, /*step_limit=*/10'000'000);
      }
    }
  }
}

TEST(BatchInvariance, LaneCountNeverChangesResults) {
  // The lane argument is a range-checked knob, not a semantic one: lanes=1
  // and lanes=64 must produce the bytes lanes=8 produced above.
  constexpr int kTrials = 9;
  sim::Kernel::Options options;
  for (const algo::AlgorithmId algorithm :
       {algo::AlgorithmId::kLogStarChain, algo::AlgorithmId::kCombinedSift}) {
    const auto scalar =
        scalar_summaries(algorithm, algo::AdversaryId::kUniformRandom,
                         /*n=*/16, /*k=*/16, kTrials, options);
    for (const int lanes : {1, 3, 64}) {
      const auto batched = batch_summaries(
          algorithm, algo::AdversaryId::kUniformRandom, /*n=*/16, /*k=*/16,
          kTrials, lanes, options.step_limit);
      for (std::size_t trial = 0; trial < scalar.size(); ++trial) {
        ASSERT_EQ(summary_bytes(scalar[trial]), summary_bytes(batched[trial]))
            << "lanes=" << lanes << " trial " << trial;
      }
    }
  }
}

TEST(BatchInvariance, WideCellsMatchScalarUnderEverySchedule) {
  // Wide cells pick by rank out of hundreds of runnable pids for thousands
  // of steps, and crash cells retire pids from the middle of the set: an
  // off-by-one pick or a stale erase shows up within a trial.  The
  // O(log k)-step ratrace-path and combined-sift cells are the batch
  // engine's heaviest, so they run under every eligible schedule.
  for (const algo::AdversaryId adversary :
       {algo::AdversaryId::kUniformRandom, algo::AdversaryId::kCrashAfterOps,
        algo::AdversaryId::kRoundRobin}) {
    expect_bitwise_identical(algo::AlgorithmId::kLogStarChain, adversary,
                             /*n=*/80, /*k=*/80, /*trials=*/6, /*lanes=*/4,
                             /*step_limit=*/10'000'000);
  }
  for (const algo::AlgorithmId algorithm :
       {algo::AlgorithmId::kRatRacePath, algo::AlgorithmId::kCombinedSift}) {
    for (const algo::AdversaryId adversary :
         {algo::AdversaryId::kUniformRandom, algo::AdversaryId::kCrashAfterOps,
          algo::AdversaryId::kRoundRobin, algo::AdversaryId::kSequential}) {
      expect_bitwise_identical(algorithm, adversary, /*n=*/256, /*k=*/256,
                               /*trials=*/3, /*lanes=*/2,
                               /*step_limit=*/10'000'000);
    }
  }
}

TEST(BatchInvariance, StarvedLanesRetireEarlyAndIdentically) {
  // A tiny step limit starves most trials (completed=false, unfinished>0);
  // they must fold into exactly the scalar path's starved summaries, and
  // their early exit must not disturb the trials after them.
  for (const algo::AlgorithmId algorithm :
       {algo::AlgorithmId::kLogStarChain, algo::AlgorithmId::kSiftCascade,
        algo::AlgorithmId::kRatRacePath}) {
    for (const algo::AdversaryId adversary :
         {algo::AdversaryId::kUniformRandom,
          algo::AdversaryId::kCrashAfterOps}) {
      expect_bitwise_identical(algorithm, adversary, /*n=*/8, /*k=*/8,
                               /*trials=*/12, /*lanes=*/8,
                               /*step_limit=*/40);
    }
  }
}

TEST(BatchInvariance, IneligiblePairsRefuseAStream) {
  // Adversaries whose schedules are not a pure function of (seed,
  // runnable, steps) -- and algorithms without a machine -- must return
  // nullptr so callers fall back to the scalar kernel.
  for (const algo::AdversaryId adversary :
       {algo::AdversaryId::kAbortAfterOps, algo::AdversaryId::kGeNeutralizer,
        algo::AdversaryId::kReplay}) {
    EXPECT_FALSE(algo::batch_eligible(adversary));
    EXPECT_EQ(algo::make_batch_stream(algo::AlgorithmId::kLogStarChain,
                                      adversary, 8, 8, 8, kSeed0,
                                      10'000'000),
              nullptr);
  }
  for (const algo::AlgorithmId algorithm :
       {algo::AlgorithmId::kRatRace, algo::AlgorithmId::kTournament,
        algo::AlgorithmId::kAaSiftRatRace, algo::AlgorithmId::kAbortableRace,
        algo::AlgorithmId::kNativeAtomic}) {
    EXPECT_FALSE(algo::batch_supported(algorithm));
    EXPECT_EQ(algo::make_batch_stream(algorithm,
                                      algo::AdversaryId::kUniformRandom, 8, 8,
                                      8, kSeed0, 10'000'000),
              nullptr);
  }
}

TEST(BatchInvariance, TrialsAreAPureFunctionOfTheirIndex) {
  // Work-stealing executors may run trials out of order, after others have
  // dirtied the bank: byte-identical either way.
  auto stream = algo::make_batch_stream(
      algo::AlgorithmId::kSiftChain, algo::AdversaryId::kCrashAfterOps,
      /*n=*/16, /*k=*/16, /*lanes=*/8, kSeed0, /*step_limit=*/10'000'000);
  ASSERT_NE(stream, nullptr);
  std::vector<exec::TrialSummary> forward(16);
  for (int trial = 0; trial < 16; ++trial) {
    forward[static_cast<std::size_t>(trial)] = stream->run_trial(trial);
  }
  // Reversed order, through the same (now dirty) stream object.
  std::vector<exec::TrialSummary> reversed(16);
  for (int trial = 15; trial >= 0; --trial) {
    reversed[static_cast<std::size_t>(trial)] = stream->run_trial(trial);
  }
  // Strided partial passes over the same trials, fresh stream.
  auto fresh = algo::make_batch_stream(
      algo::AlgorithmId::kSiftChain, algo::AdversaryId::kCrashAfterOps,
      /*n=*/16, /*k=*/16, /*lanes=*/8, kSeed0, /*step_limit=*/10'000'000);
  std::vector<exec::TrialSummary> partial(16);
  for (int offset = 0; offset < 3; ++offset) {
    for (int trial = offset; trial < 16; trial += 3) {
      partial[static_cast<std::size_t>(trial)] = fresh->run_trial(trial);
    }
  }
  for (int trial = 0; trial < 16; ++trial) {
    ASSERT_EQ(summary_bytes(forward[static_cast<std::size_t>(trial)]),
              summary_bytes(reversed[static_cast<std::size_t>(trial)]))
        << trial;
    // Another order puts different trials before each trial -- identical
    // bytes prove the bank reset leaks nothing between trials.
    ASSERT_EQ(summary_bytes(forward[static_cast<std::size_t>(trial)]),
              summary_bytes(partial[static_cast<std::size_t>(trial)]))
        << trial;
  }
}

TEST(BatchInvariance, WorkspaceServesTrialsInAnyOrder) {
  // TrialWorkspace::run_le_batch_trial runs exactly the requested trial, so
  // the order an executor asks in -- reversed, stolen half-slices, or
  // round-robin over more cells than the LRU keeps (evict + rebuild) --
  // must never change a summary, and every call runs one trial.
  struct Cell {
    algo::AlgorithmId algorithm;
    algo::AdversaryId adversary;
    int k;
  };
  const std::vector<Cell> cells = {
      {algo::AlgorithmId::kLogStarChain, algo::AdversaryId::kUniformRandom, 9},
      {algo::AlgorithmId::kRatRacePath, algo::AdversaryId::kCrashAfterOps, 6},
      {algo::AlgorithmId::kCombinedSift, algo::AdversaryId::kRoundRobin, 5},
  };
  constexpr int kTrials = 10;
  constexpr std::uint64_t kStepLimit = 10'000'000;
  std::vector<std::vector<std::string>> expected;
  for (const Cell& cell : cells) {
    sim::Kernel::Options options;
    options.step_limit = kStepLimit;
    exec::TrialWorkspace scalar;
    const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
    const sim::AdversaryFactory factory =
        algo::adversary_factory(cell.adversary);
    std::vector<std::string> bytes;
    for (int trial = 0; trial < kTrials; ++trial) {
      bytes.push_back(summary_bytes(scalar.run_le_trial_summary(
          /*key=*/0, builder, cell.k, cell.k, factory, trial, kSeed0,
          options)));
    }
    expected.push_back(std::move(bytes));
  }

  int builds = 0;
  exec::TrialWorkspace::Options ws_options;
  ws_options.max_prepared = cells.size() - 1;  // round-robin always evicts
  exec::TrialWorkspace workspace(ws_options);
  std::uint64_t calls = 0;
  const auto check = [&](std::size_t c, int trial) {
    const Cell& cell = cells[c];
    const exec::BatchStreamFactory factory = [&cell, &builds] {
      ++builds;
      return algo::make_batch_stream(cell.algorithm, cell.adversary, cell.k,
                                     cell.k, /*lanes=*/32, kSeed0,
                                     kStepLimit);
    };
    const exec::TrialSummary got = workspace.run_le_batch_trial(
        static_cast<std::uint64_t>(c), factory, /*lanes=*/32, trial, kTrials);
    ++calls;
    ASSERT_EQ(summary_bytes(got),
              expected[c][static_cast<std::size_t>(trial)])
        << algo::info(cell.algorithm).name << " trial " << trial;
  };

  // Reverse order on one cell.
  for (int trial = kTrials - 1; trial >= 0; --trial) check(0, trial);
  // Two interleaved half-slices, as when a second worker steals the back
  // half of a cell's trials.
  for (int i = 0; i < kTrials / 2; ++i) {
    check(1, i);
    check(1, kTrials / 2 + i);
  }
  EXPECT_EQ(builds, 2);
  // Round-robin across more cell keys than the LRU holds: every switch
  // evicts a stream and the next visit rebuilds it.
  for (int trial = 0; trial < kTrials; ++trial) {
    for (std::size_t c = 0; c < cells.size(); ++c) check(c, trial);
  }
  EXPECT_GT(builds, static_cast<int>(cells.size()));
  EXPECT_EQ(workspace.batch_trials_run(), calls);
}

TEST(BatchInvariance, DirectToSummaryMatchesTheComposedScalarPath) {
  // exec::TrialWorkspace::run_le_trial_summary is the executor's scalar
  // fold: it must equal summarize_trial(run_le_trial(...)) byte for byte,
  // including the first-violation strings (abortable cells) and the RMR
  // tallies (armed models), without materializing LeRunResult.
  struct Cell {
    algo::AlgorithmId algorithm;
    algo::AdversaryId adversary;
    rmr::RmrModel rmr;
  };
  const Cell cells[] = {
      {algo::AlgorithmId::kLogStarChain, algo::AdversaryId::kUniformRandom,
       rmr::RmrModel::kNone},
      {algo::AlgorithmId::kRatRace, algo::AdversaryId::kCrashAfterOps,
       rmr::RmrModel::kNone},
      {algo::AlgorithmId::kSiftCascade, algo::AdversaryId::kRoundRobin,
       rmr::RmrModel::kCC},
      {algo::AlgorithmId::kTournament, algo::AdversaryId::kSequential,
       rmr::RmrModel::kDSM},
      // The abort adversary against the abortable baseline exercises the
      // abort outcome counts and the per-pid abort violation scan.
      {algo::AlgorithmId::kAbortableRace, algo::AdversaryId::kAbortAfterOps,
       rmr::RmrModel::kNone},
  };
  constexpr int kTrials = 8;
  for (const Cell& cell : cells) {
    sim::Kernel::Options options;
    options.rmr_model = cell.rmr;
    const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
    const sim::AdversaryFactory factory =
        algo::adversary_factory(cell.adversary);
    exec::TrialWorkspace composed;
    exec::TrialWorkspace direct;
    for (int trial = 0; trial < kTrials; ++trial) {
      const exec::TrialSummary expected =
          sim::summarize_trial(composed.run_le_trial(
              /*key=*/0, builder, /*n=*/8, /*k=*/8, factory, trial, kSeed0,
              options));
      const exec::TrialSummary got = direct.run_le_trial_summary(
          /*key=*/0, builder, /*n=*/8, /*k=*/8, factory, trial, kSeed0,
          options);
      ASSERT_EQ(summary_bytes(expected), summary_bytes(got))
          << algo::info(cell.algorithm).name << " x "
          << algo::info(cell.adversary).name << " trial " << trial;
    }
  }
}

TEST(BatchInvariance, CampaignBatchKnobNeverChangesReporterBytes) {
  // End-to-end executor gate: a mixed grid -- an eligible algorithm, an
  // algorithm with no batch machine, an eligible adversary, and an
  // adversary with an impure schedule -- must render identical reporter
  // bytes whether the batch fast path is off, narrow, or wider than the
  // cell (and under work stealing).  Ineligible cells silently keep the
  // scalar kernel; that fallback is what this grid probes.
  campaign::CampaignSpec spec;
  spec.name = "batch-gate";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kRatRace};
  spec.adversaries = {algo::AdversaryId::kUniformRandom,
                      algo::AdversaryId::kAbortAfterOps};
  spec.ks = {2, 6};
  spec.trials = 10;
  spec.seed = 404;
  std::string reference_jsonl;
  std::string reference_csv;
  for (const int lanes : {0, 1, 8, 64}) {
    campaign::ExecutorOptions options;
    options.sim_batch_lanes = lanes;
    options.workers = (lanes == 8) ? 3 : 1;  // steal across batched blocks
    const campaign::CampaignResult result =
        campaign::run_campaign(spec, options);
    const std::string jsonl =
        campaign::render_to_string(result, campaign::ReportFormat::kJsonl);
    const std::string csv =
        campaign::render_to_string(result, campaign::ReportFormat::kCsv);
    EXPECT_FALSE(jsonl.empty());
    if (reference_jsonl.empty()) {
      reference_jsonl = jsonl;
      reference_csv = csv;
    } else {
      EXPECT_EQ(jsonl, reference_jsonl) << "sim_batch_lanes=" << lanes;
      EXPECT_EQ(csv, reference_csv) << "sim_batch_lanes=" << lanes;
    }
  }
}

TEST(RunnableVector, MatchesAReferenceVectorUnderRandomErases) {
  support::PrngSource rng(0x5e7ec7ULL);
  for (const int k : {1, 2, 63, 64, 65, 1024}) {
    sim::RunnableVector set;
    set.reset(k);
    std::vector<int> reference(static_cast<std::size_t>(k));
    for (int pid = 0; pid < k; ++pid) {
      reference[static_cast<std::size_t>(pid)] = pid;
    }
    while (!reference.empty()) {
      ASSERT_EQ(set.size(), reference.size()) << "k=" << k;
      ASSERT_FALSE(set.empty());
      ASSERT_EQ(set.front(), reference.front()) << "k=" << k;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(set[i], reference[i]) << "k=" << k << " i=" << i;
      }
      ASSERT_EQ(set.pids(), reference) << "k=" << k;
      const auto victim = static_cast<std::size_t>(rng.draw(reference.size()));
      const int pid = reference[victim];
      set.erase(pid);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(victim));
      ASSERT_FALSE(std::binary_search(set.pids().begin(), set.pids().end(),
                                      pid))
          << "k=" << k << " pid=" << pid;
      // Erasing an absent pid changes nothing (the kernel's crash before
      // start() relies on it).
      set.erase(pid);
      ASSERT_EQ(set.size(), reference.size()) << "k=" << k;
    }
    ASSERT_TRUE(set.empty());
    // Reusable: reset restores all of 0..k-1.
    set.reset(k);
    ASSERT_EQ(set.size(), static_cast<std::size_t>(k));
    for (int pid = 0; pid < k; ++pid) {
      ASSERT_EQ(set[static_cast<std::size_t>(pid)], pid) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace rts
