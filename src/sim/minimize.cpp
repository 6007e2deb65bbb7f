#include "sim/minimize.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "exec/conformance.hpp"
#include "exec/workspace.hpp"
#include "support/assert.hpp"

namespace rts::sim {

namespace {

std::int32_t winner_pid(const LeRunResult& result) { return winner_of(result); }

TracePredicate threshold_predicate(
    const char* family, std::uint64_t threshold,
    std::function<std::uint64_t(const LeRunResult&)> metric) {
  TracePredicate predicate;
  predicate.spec =
      std::string(family) + ">=" + std::to_string(threshold);
  predicate.holds = [threshold, metric = std::move(metric)](
                        const CandidateRun& run) {
    return metric(*run.result) >= threshold;
  };
  return predicate;
}

}  // namespace

TracePredicate pred_max_steps_at_least(std::uint64_t threshold) {
  return threshold_predicate("max-steps", threshold,
                             [](const LeRunResult& r) { return r.max_steps; });
}

TracePredicate pred_winner_steps_at_least(std::uint64_t threshold) {
  return threshold_predicate("winner-steps", threshold,
                             [](const LeRunResult& r) -> std::uint64_t {
                               const std::int32_t winner = winner_pid(r);
                               if (winner < 0) return 0;
                               return r.steps[static_cast<std::size_t>(winner)];
                             });
}

TracePredicate pred_total_steps_at_least(std::uint64_t threshold) {
  return threshold_predicate(
      "total-steps", threshold,
      [](const LeRunResult& r) { return r.total_steps; });
}

TracePredicate pred_safety_violation() {
  TracePredicate predicate;
  predicate.spec = "violation";
  predicate.holds = [](const CandidateRun& run) {
    return !run.result->violations.empty();
  };
  return predicate;
}

TracePredicate pred_backend_divergence() {
  TracePredicate predicate;
  predicate.spec = "divergence";
  predicate.needs_pooled = true;
  predicate.holds = [](const CandidateRun& run) {
    if (run.pooled == nullptr) return true;  // pooled path errored: diverged
    return !exec::result_mismatch(*run.result, *run.pooled).empty();
  };
  return predicate;
}

TracePredicate pred_rmr_at_least(std::uint64_t threshold) {
  TracePredicate predicate;
  predicate.spec = "rmr>=" + std::to_string(threshold);
  predicate.needs_pooled = true;
  predicate.holds = [threshold](const CandidateRun& run) {
    // The pooled-accounting identity is part of the property: a candidate
    // whose fresh and pooled tallies disagree (or whose pooled replay
    // errored) must not be adopted into the corpus as an rmr witness.
    if (run.pooled == nullptr) return false;
    if (run.pooled->rmr_total != run.result->rmr_total) return false;
    return run.result->rmr_total >= threshold;
  };
  return predicate;
}

const std::vector<PredicateFamilyInfo>& predicate_families() {
  static const std::vector<PredicateFamilyInfo> kFamilies = {
      {"max-steps", true,
       "some participant's individual step count reaches the threshold"},
      {"winner-steps", true,
       "a winner exists and its step count reaches the threshold"},
      {"total-steps", true,
       "total steps across all participants reach the threshold"},
      {"violation", false,
       "the replay records a safety/liveness violation (algorithm bug)"},
      {"divergence", false,
       "fresh and pooled sim replays disagree (execution-stack bug)"},
      {"rmr", true,
       "the trial's RMR total under the cell's charging model reaches the "
       "threshold (cc/dsm cells only)"},
  };
  return kFamilies;
}

bool predicate_family_thresholded(std::string_view family) {
  for (const PredicateFamilyInfo& info : predicate_families()) {
    if (family == info.name) return info.thresholded;
  }
  return false;
}

std::optional<PredicateSpec> parse_predicate_spec(std::string_view text) {
  PredicateSpec spec;
  const std::size_t ge = text.find(">=");
  std::string_view family = text.substr(0, ge);
  for (const PredicateFamilyInfo& info : predicate_families()) {
    if (family != info.name) continue;
    spec.family = info.name;
    if (ge == std::string_view::npos) return spec;
    if (!info.thresholded) return std::nullopt;  // "violation>=3" is malformed
    const std::string_view digits = text.substr(ge + 2);
    std::uint64_t threshold = 0;
    const auto [end, err] = std::from_chars(
        digits.data(), digits.data() + digits.size(), threshold);
    if (err != std::errc{} || end != digits.data() + digits.size()) {
      return std::nullopt;
    }
    spec.threshold = threshold;
    return spec;
  }
  return std::nullopt;
}

TracePredicate make_predicate(const PredicateSpec& spec) {
  if (spec.family == "violation") return pred_safety_violation();
  if (spec.family == "divergence") return pred_backend_divergence();
  RTS_REQUIRE(spec.threshold.has_value(),
              ("predicate '" + spec.family +
               "' needs a threshold, e.g. '" + spec.family + ">=100'")
                  .c_str());
  if (spec.family == "max-steps") return pred_max_steps_at_least(*spec.threshold);
  if (spec.family == "winner-steps") {
    return pred_winner_steps_at_least(*spec.threshold);
  }
  if (spec.family == "total-steps") {
    return pred_total_steps_at_least(*spec.threshold);
  }
  if (spec.family == "rmr") return pred_rmr_at_least(*spec.threshold);
  throw Error("unknown predicate family '" + spec.family + "'");
}

std::uint64_t hunt_metric(const PredicateSpec& spec,
                          const LeRunResult& result) {
  if (spec.family == "max-steps") return result.max_steps;
  if (spec.family == "total-steps") return result.total_steps;
  if (spec.family == "winner-steps") {
    const std::int32_t winner = winner_pid(result);
    if (winner < 0) return 0;
    return result.steps[static_cast<std::size_t>(winner)];
  }
  if (spec.family == "violation") return result.violations.empty() ? 0 : 1;
  if (spec.family == "rmr") return result.rmr_total;
  throw Error("predicate family '" + spec.family +
              "' cannot rank hunt trials from a single replay");
}

std::uint64_t schedule_step_budget(const std::vector<Action>& actions) {
  std::uint64_t grants = 0;
  for (const Action& action : actions) {
    if (action.kind == Action::Kind::kStep) ++grants;
  }
  return grants;
}

std::optional<LeRunResult> replay_schedule_prefix(
    const LeBuilder& builder, int n, int k,
    const std::vector<Action>& actions, std::uint64_t trial_seed,
    rmr::RmrModel rmr_model, exec::TrialWorkspace* workspace) {
  const std::uint64_t budget = schedule_step_budget(actions);
  if (budget == 0) return std::nullopt;  // a grant-free schedule is degenerate
  try {
    return replay_actions(builder, n, k, actions, trial_seed,
                          cell_kernel_options(budget, rmr_model), workspace);
  } catch (const Error&) {
    return std::nullopt;  // action targeting a non-runnable pid
  }
}

namespace {

/// One ddmin sweep: starting at granularity 2, repeatedly try dropping one
/// of n near-equal chunks; on success adopt the complement and coarsen one
/// notch, on failure double the granularity, until single-action removals
/// fail too.  Returns whether anything was removed.
bool ddmin_pass(std::vector<Action>& current,
                const std::function<bool(const std::vector<Action>&)>& test) {
  bool removed_any = false;
  std::size_t granularity = 2;
  while (current.size() >= 2) {
    granularity = std::min(granularity, current.size());
    bool removed = false;
    for (std::size_t chunk = 0; chunk < granularity; ++chunk) {
      const std::size_t begin = current.size() * chunk / granularity;
      const std::size_t end = current.size() * (chunk + 1) / granularity;
      if (begin == end) continue;
      std::vector<Action> candidate;
      candidate.reserve(current.size() - (end - begin));
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<std::ptrdiff_t>(begin));
      candidate.insert(candidate.end(),
                       current.begin() + static_cast<std::ptrdiff_t>(end),
                       current.end());
      if (test(candidate)) {
        current = std::move(candidate);
        granularity = std::max<std::size_t>(granularity - 1, 2);
        removed = true;
        removed_any = true;
        break;
      }
    }
    if (!removed) {
      if (granularity >= current.size()) break;  // 1-minimal
      granularity *= 2;
    }
  }
  return removed_any;
}

}  // namespace

MinimizeResult minimize_trial(const LeBuilder& builder, const CellTrace& cell,
                              std::size_t trial_index,
                              const TracePredicate& predicate) {
  RTS_REQUIRE(trial_index < cell.trials.size(),
              "minimize: trial index out of range");
  RTS_REQUIRE(cell.k >= 1 && cell.k <= cell.n,
              "minimize: trace needs 1 <= k <= n");
  const TrialTrace& trial = cell.trials[trial_index];
  const int n = static_cast<int>(cell.n);
  const int k = static_cast<int>(cell.k);

  // Gate 1: the input must replay to its recorded digest under the cell's
  // own step limit.  A trace that no longer reproduces what it recorded is
  // corrupt or was recorded by different code; minimizing it would produce
  // a confidently-wrong artifact.
  LeRunResult replayed;
  try {
    replayed = replay_cell_trial(builder, cell, trial);
  } catch (const Error& error) {
    throw Error(std::string("minimize: input trace does not replay: ") +
                error.what());
  }
  const std::string drift = replay_mismatch(trial, replayed);
  if (!drift.empty()) {
    throw Error("minimize: input trace diverges from its recorded digest (" +
                drift + ")");
  }

  // Every candidate replays fresh under the prefix convention, plus pooled
  // for predicates that compare backends; a pooled-only replay failure
  // leaves `pooled` empty, which the divergence oracle treats as a
  // divergence.
  exec::TrialWorkspace workspace;
  int evals = 0;
  const auto test = [&](const std::vector<Action>& actions) {
    ++evals;
    const std::optional<LeRunResult> fresh = replay_schedule_prefix(
        builder, n, k, actions, trial.trial_seed, cell.rmr);
    if (!fresh) return false;
    std::optional<LeRunResult> pooled;
    if (predicate.needs_pooled) {
      pooled = replay_schedule_prefix(builder, n, k, actions,
                                      trial.trial_seed, cell.rmr, &workspace);
    }
    CandidateRun run;
    run.cell = &cell;
    run.trial = &trial;
    run.actions = &actions;
    run.result = &*fresh;
    run.pooled = pooled ? &*pooled : nullptr;
    return predicate.holds(run);
  };
  // Gate 2: the predicate must hold on the unminimized schedule (under the
  // prefix convention every candidate is evaluated with).
  std::vector<Action> current = trial.actions;
  if (!test(current)) {
    throw Error("minimize: predicate '" + predicate.spec +
                "' does not hold on the input trial");
  }

  MinimizeResult out;
  out.stats.original_actions = current.size();

  // ddmin to a fixpoint: the final pass sweeps every granularity without
  // removing anything, which is exactly the first pass a re-run would
  // perform -- minimization is idempotent by construction.
  int passes = 1;
  while (ddmin_pass(current, test)) ++passes;
  out.stats.passes = passes;
  out.stats.minimized_actions = current.size();
  out.stats.evals = evals;

  // Recompute the outcome digest from the minimized schedule's replay and
  // package a standalone single-trial cell whose step_limit is the prefix
  // budget -- the standard replay path then reproduces this exact run.
  const std::optional<LeRunResult> final_run =
      replay_schedule_prefix(builder, n, k, current, trial.trial_seed,
                             cell.rmr);
  RTS_ASSERT_MSG(final_run.has_value(),
                 "minimize: adopted candidate stopped replaying");
  TrialTrace minimized;
  minimized.trial_seed = trial.trial_seed;
  minimized.adversary_seed = trial.adversary_seed;
  minimized.actions = std::move(current);
  fill_trace_result(minimized, *final_run);

  out.cell = cell;  // identity and geometry; the trial list is replaced
  out.cell.step_limit = schedule_step_budget(minimized.actions);
  out.cell.trials.assign(1, minimized);
  return out;
}

}  // namespace rts::sim
