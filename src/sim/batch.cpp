#include "sim/batch.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "sim/runnable.hpp"
#include "sim/runner.hpp"
#include "support/assert.hpp"

namespace rts::sim {

namespace {

class BatchEngine final : public BatchStream {
 public:
  BatchEngine(std::unique_ptr<BatchAlgorithm> algorithm, BatchConfig config)
      : cfg_(std::move(config)), algo_(std::move(algorithm)) {
    RTS_REQUIRE(algo_ != nullptr, "batch engine requires a machine");
    RTS_REQUIRE(cfg_.k >= 1 && cfg_.k <= cfg_.n,
                "need 1 <= k <= n participants");
    RTS_REQUIRE(cfg_.adversary != nullptr,
                "batch engine requires an adversary");
    adversary_ = cfg_.adversary(0);
    RTS_REQUIRE(adversary_->clazz() == AdversaryClass::kOblivious,
                "the batch engine shows its adversary no pending ops, so it "
                "runs oblivious adversaries only");
    k_ = cfg_.k;
    const std::size_t num_regs = algo_->num_registers();
    const auto k = static_cast<std::size_t>(k_);
    values_.assign(num_regs, 0);
    touched_.assign(num_regs, 0);
    rngs_.reserve(k);
    for (std::size_t i = 0; i < k; ++i) rngs_.emplace_back(0);
    steps_.assign(k, 0);
    outcomes_.assign(k, Outcome::kUnknown);
    crashed_.assign(k, 0);
    pending_.assign(k, BatchAction{});
  }

  std::size_t declared_registers() const override {
    return algo_->declared_registers();
  }

  exec::TrialSummary run_trial(int trial) override {
    seed_trial(trial);
    // Kernel::run's loop over the engine's own state.
    const KernelView view(runnable_.pids(), steps_, total_);
    bool completed = true;
    while (!runnable_.empty()) {
      if (total_ >= cfg_.step_limit) {
        completed = false;  // starved, not done
        break;
      }
      const Action action = adversary_->next(view);
      switch (action.kind) {
        case Action::Kind::kStep:
          grant(action.pid);
          break;
        case Action::Kind::kCrash:
          crash(action.pid);
          break;
        case Action::Kind::kAbort:
          RTS_ASSERT_MSG(false, "batch machines cannot take abort requests");
          break;
      }
    }
    return summarize(completed);
  }

 private:
  /// Rewinds every register the previous trial dirtied to its freshly-built
  /// state (value 0, untouched) -- the batch analog of
  /// SimMemory::reset_values, O(touched) instead of O(allocated).
  void reset_bank() {
    for (const std::uint32_t slot : dirty_slots_) {
      values_[slot] = 0;
      touched_[slot] = 0;
    }
    dirty_slots_.clear();
  }

  /// Reseeds the engine for trial `trial` of the cell's stream -- exactly
  /// the scalar chain: trial_seed(seed0, t), adversary_seed(trial_seed),
  /// derive_seed(trial_seed, pid) per participant -- then runs every pid's
  /// prologue to its first announcement, in pid order (Kernel::start()).
  void seed_trial(int trial) {
    const std::uint64_t ts = trial_seed(cfg_.seed0, trial);
    const std::uint64_t as = adversary_seed(ts);
    if (!adversary_->reseed(as)) adversary_ = cfg_.adversary(as);
    reset_bank();
    runnable_.reset(k_);
    total_ = 0;
    for (int pid = 0; pid < k_; ++pid) {
      const auto idx = static_cast<std::size_t>(pid);
      rngs_[idx].reseed(
          support::derive_seed(ts, static_cast<std::uint64_t>(pid)));
      steps_[idx] = 0;
      outcomes_[idx] = Outcome::kUnknown;
      crashed_[idx] = 0;
    }
    for (int pid = 0; pid < k_; ++pid) {
      const auto idx = static_cast<std::size_t>(pid);
      const BatchAction action = algo_->start(pid, rngs_[idx]);
      if (action.kind == BatchAction::Kind::kFinish) {
        finish(pid, action.outcome);
      } else {
        pending_[idx] = action;
      }
    }
  }

  /// A pid's machine returned its outcome: it leaves the runnable set.
  /// Machines finish with a win or a loss, never kUnknown, so "outcome
  /// unknown and not crashed" is exactly "runnable".
  void finish(int pid, Outcome outcome) {
    RTS_ASSERT(outcome != Outcome::kUnknown);
    outcomes_[static_cast<std::size_t>(pid)] = outcome;
    runnable_.erase(pid);
  }

  bool runnable(int pid) const {
    const auto idx = static_cast<std::size_t>(pid);
    return outcomes_[idx] == Outcome::kUnknown && crashed_[idx] == 0;
  }

  /// Kernel::crash: the pid never takes another step.
  void crash(int pid) {
    RTS_ASSERT_MSG(runnable(pid), "crash of a finished or crashed pid");
    crashed_[static_cast<std::size_t>(pid)] = 1;
    runnable_.erase(pid);
  }

  /// Kernel::grant: executes pid's pending op against the bank, then
  /// advances its machine to the next announcement or completion.
  void grant(int pid) {
    RTS_ASSERT_MSG(runnable(pid), "grant to non-runnable pid");
    const auto idx = static_cast<std::size_t>(pid);
    const BatchAction& op = pending_[idx];
    if (touched_[op.reg] == 0) {
      touched_[op.reg] = 1;
      dirty_slots_.push_back(op.reg);
    }
    std::uint64_t result = 0;
    if (op.kind == BatchAction::Kind::kRead) {
      result = values_[op.reg];
    } else {
      values_[op.reg] = op.value;
    }
    ++total_;
    ++steps_[idx];
    const BatchAction next = algo_->resume(pid, rngs_[idx], result);
    if (next.kind == BatchAction::Kind::kFinish) {
      finish(pid, next.outcome);
    } else {
      pending_[idx] = next;
    }
  }

  /// Folds the trial's state straight into the scalar-identical
  /// TrialSummary -- the same field derivations as sim::summarize_le_trial,
  /// with the batch-ineligible branches (aborts, RMR models) statically
  /// absent.
  exec::TrialSummary summarize(bool completed) const {
    exec::TrialSummary summary;
    summary.backend = exec::Backend::kSim;
    summary.k = k_;
    std::uint64_t max_steps = 0;
    int winners = 0;
    bool crash_free = true;
    for (int pid = 0; pid < k_; ++pid) {
      const auto idx = static_cast<std::size_t>(pid);
      max_steps = std::max(max_steps, steps_[idx]);
      if (crashed_[idx] != 0) crash_free = false;
      switch (outcomes_[idx]) {
        case Outcome::kWin:
          ++winners;
          break;
        case Outcome::kUnknown:
          ++summary.unfinished;
          break;
        case Outcome::kLose:
        case Outcome::kAbort:  // unreachable: batch machines never abort
          break;
      }
    }
    summary.max_steps = max_steps;
    summary.total_steps = total_;
    summary.regs_touched = dirty_slots_.size();
    summary.declared_registers = algo_->declared_registers();
    summary.crash_free = crash_free;
    summary.completed = completed;
    summary.latency = max_steps;
    std::vector<std::string> violations = election_violations(
        winners, completed, crash_free, /*abort_requests=*/0);
    if (!violations.empty()) {
      summary.first_violation = std::move(violations.front());
    }
    return summary;
  }

  BatchConfig cfg_;
  std::unique_ptr<BatchAlgorithm> algo_;
  int k_ = 0;

  // Register bank: one word per slot, plus the slots this trial touched.
  std::vector<std::uint64_t> values_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint32_t> dirty_slots_;

  // Per-pid machine plumbing.
  std::vector<support::PrngSource> rngs_;
  std::vector<std::uint64_t> steps_;
  std::vector<Outcome> outcomes_;
  std::vector<std::uint8_t> crashed_;
  std::vector<BatchAction> pending_;

  RunnableVector runnable_;
  std::unique_ptr<Adversary> adversary_;
  std::uint64_t total_ = 0;
};

}  // namespace

std::unique_ptr<BatchStream> make_batch_stream(
    std::unique_ptr<BatchAlgorithm> algorithm, const BatchConfig& config) {
  return std::make_unique<BatchEngine>(std::move(algorithm), config);
}

}  // namespace rts::sim
