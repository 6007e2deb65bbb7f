#include "sim/runner.hpp"

#include <algorithm>

#include "exec/workspace.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace rts::sim {

std::vector<std::string> election_violations(int winners, bool completed,
                                             bool crash_free,
                                             int abort_requests) {
  std::vector<std::string> violations;
  if (winners > 1) {
    violations.push_back("safety: more than one winner (" +
                         std::to_string(winners) + ")");
  }
  if (completed && crash_free && abort_requests == 0 && winners != 1) {
    violations.push_back(
        "liveness: crash-free complete run without exactly one winner");
  }
  return violations;
}

LeRunResult collect_le_result(const Kernel& kernel, int n, int k,
                              const std::vector<Outcome>& outcomes,
                              std::size_t declared_registers, bool completed,
                              bool abortable) {
  LeRunResult result;
  result.n = n;
  result.k = k;
  result.outcomes = outcomes;
  result.declared_registers = declared_registers;
  result.completed = completed;
  result.abort_requests = kernel.abort_requests();

  result.steps.resize(static_cast<std::size_t>(k));
  for (int pid = 0; pid < k; ++pid) {
    result.steps[static_cast<std::size_t>(pid)] = kernel.steps(pid);
    if (kernel.state(pid) == SimProcess::State::kCrashed) {
      result.crash_free = false;
    }
  }
  result.max_steps = *std::max_element(result.steps.begin(), result.steps.end());
  result.total_steps = kernel.total_steps();
  result.regs_allocated = kernel.memory().allocated();
  result.regs_touched = kernel.memory().touched();
  result.rmr_total = kernel.rmr().total();
  result.rmr_max = kernel.rmr().max_by_pid();

  for (const Outcome outcome : result.outcomes) {
    switch (outcome) {
      case Outcome::kWin:
        ++result.winners;
        break;
      case Outcome::kLose:
        ++result.losers;
        break;
      case Outcome::kAbort:
        ++result.aborted;
        break;
      case Outcome::kUnknown:
        ++result.unfinished;
        break;
    }
  }

  result.violations =
      election_violations(result.winners, result.completed,
                          result.crash_free, result.abort_requests);
  for (int pid = 0; pid < k; ++pid) {
    const Outcome outcome = result.outcomes[static_cast<std::size_t>(pid)];
    if (outcome == Outcome::kAbort && !kernel.abort_requested(pid)) {
      result.violations.push_back("abort: pid " + std::to_string(pid) +
                                  " aborted without a request");
    }
    if (abortable && outcome == Outcome::kWin && kernel.abort_requested(pid)) {
      result.violations.push_back(
          "abort: pid " + std::to_string(pid) +
          " won despite an abort request (must abort or lose)");
    }
  }
  return result;
}

LeRunResult run_le_once(const LeBuilder& builder, int n, int k,
                        Adversary& adversary, std::uint64_t seed,
                        Kernel::Options kernel_options) {
  RTS_REQUIRE(k >= 1 && k <= n, "need 1 <= k <= n participants");
  std::vector<Outcome> outcomes(static_cast<std::size_t>(k),
                                Outcome::kUnknown);

  Kernel kernel(kernel_options);
  BuiltLe le = builder(kernel, n);

  for (int pid = 0; pid < k; ++pid) {
    auto rng = std::make_unique<support::PrngSource>(
        support::derive_seed(seed, static_cast<std::uint64_t>(pid)));
    auto* outcome_slot = &outcomes[static_cast<std::size_t>(pid)];
    kernel.add_process(
        [&le, outcome_slot](Context& ctx) { *outcome_slot = le.elect(ctx); },
        std::move(rng));
  }

  const bool completed = kernel.run(adversary);
  return collect_le_result(kernel, n, k, outcomes, le.declared_registers,
                           completed, le.abortable);
}

LeTrialSummary summarize_trial(const LeRunResult& result) {
  LeTrialSummary trial;
  trial.backend = exec::Backend::kSim;
  trial.k = result.k;
  trial.max_steps = result.max_steps;
  trial.total_steps = result.total_steps;
  trial.regs_touched = result.regs_touched;
  trial.declared_registers = result.declared_registers;
  trial.unfinished = result.unfinished;
  trial.crash_free = result.crash_free;
  trial.completed = result.completed;
  trial.rmr_total = result.rmr_total;
  trial.rmr_max = result.rmr_max;
  trial.aborted = result.aborted;
  // Sim latency is the trial's max step count: the deterministic analog of
  // wall time, so histogram percentiles stay bitwise-reproducible.
  trial.latency = result.max_steps;
  if (!result.violations.empty()) trial.first_violation = result.violations.front();
  return trial;
}

LeTrialSummary summarize_le_trial(const Kernel& kernel, int k,
                                  const std::vector<Outcome>& outcomes,
                                  std::size_t declared_registers,
                                  bool completed, bool abortable) {
  LeTrialSummary trial;
  trial.backend = exec::Backend::kSim;
  trial.k = k;
  int winners = 0;
  for (int pid = 0; pid < k; ++pid) {
    trial.max_steps = std::max(trial.max_steps, kernel.steps(pid));
    if (kernel.state(pid) == SimProcess::State::kCrashed) {
      trial.crash_free = false;
    }
    switch (outcomes[static_cast<std::size_t>(pid)]) {
      case Outcome::kWin:
        ++winners;
        break;
      case Outcome::kAbort:
        ++trial.aborted;
        break;
      case Outcome::kUnknown:
        ++trial.unfinished;
        break;
      case Outcome::kLose:
        break;
    }
  }
  trial.total_steps = kernel.total_steps();
  trial.regs_touched = kernel.memory().touched();
  trial.declared_registers = declared_registers;
  trial.completed = completed;
  trial.rmr_total = kernel.rmr().total();
  trial.rmr_max = kernel.rmr().max_by_pid();
  trial.latency = trial.max_steps;
  // First violation, in collect_le_result's order: safety, then liveness,
  // then the per-pid abort checks in pid order.
  std::vector<std::string> violations = election_violations(
      winners, completed, trial.crash_free, kernel.abort_requests());
  if (!violations.empty()) {
    trial.first_violation = std::move(violations.front());
    return trial;
  }
  for (int pid = 0; pid < k; ++pid) {
    const Outcome outcome = outcomes[static_cast<std::size_t>(pid)];
    if (outcome == Outcome::kAbort && !kernel.abort_requested(pid)) {
      trial.first_violation =
          "abort: pid " + std::to_string(pid) + " aborted without a request";
      return trial;
    }
    if (abortable && outcome == Outcome::kWin && kernel.abort_requested(pid)) {
      trial.first_violation =
          "abort: pid " + std::to_string(pid) +
          " won despite an abort request (must abort or lose)";
      return trial;
    }
  }
  return trial;
}

std::uint64_t trial_seed(std::uint64_t seed0, int trial) {
  return support::derive_seed(seed0, static_cast<std::uint64_t>(trial));
}

std::uint64_t adversary_seed(std::uint64_t trial_seed) {
  return support::derive_seed(trial_seed, 0xadUL);
}

LeRunResult run_le_trial(const LeBuilder& builder, int n, int k,
                         const AdversaryFactory& adversary_factory, int trial,
                         std::uint64_t seed0, Kernel::Options kernel_options) {
  const std::uint64_t seed = trial_seed(seed0, trial);
  auto adversary = adversary_factory(adversary_seed(seed));
  return run_le_once(builder, n, k, *adversary, seed, kernel_options);
}

LeAggregate run_le_many(const LeBuilder& builder, int n, int k,
                        const AdversaryFactory& adversary_factory, int trials,
                        std::uint64_t seed0, Kernel::Options kernel_options) {
  exec::TrialWorkspace workspace;
  LeAggregate agg;
  for (int t = 0; t < trials; ++t) {
    accumulate_trial(
        agg, summarize_trial(workspace.run_le_trial(
                 /*key=*/0, builder, n, k, adversary_factory, t, seed0,
                 kernel_options)));
  }
  return agg;
}

}  // namespace rts::sim
