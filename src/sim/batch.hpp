// Batched trial engine: a cell's trials run one after another through
// explicit state machines instead of fibers.
//
// The scalar trial path (sim::Kernel + fibers) already pays per step and per
// touched register (an exact runnable vector, a dirty-slot register reset),
// but every step is a fiber round-trip through a k-fiber working set of
// stacks, and every register is a 48-byte accounting slot.  The batch
// engine removes both: algorithms run as explicit state machines (no
// fibers) and register values live in one flat bank of 64-bit words with a
// dirty-slot list.  The runnable set is the kernel's own pid-ordered vector
// (sim/runnable.hpp): the scheduler picks on every step and a pick is one
// index, while the O(k) erase runs only when a pid finishes or crashes, at
// most k times per trial.  A logarithmic select index would pay its
// descent on every step instead, so the vector wins wherever a trial takes
// many steps per pid (ratrace-path, the combiners) and gives a little back
// where it takes few (logstar).  The engine holds exactly one trial's
// state -- one bank, one runnable set, one adversary, per-pid arrays of
// size k -- so its working set is that of a single trial and any trial can
// be computed on its own, in any order.
//
// Scheduling is not reimplemented here: the engine drives one catalogued
// sim::Adversary through a kernel-less KernelView over its own runnable set
// and step counters, reseeding it per trial and asking it for every step
// exactly as Kernel::run does.  Such a view shows no pending op, so only
// oblivious schedulers that step and crash can run here; the catalogue
// decides which those are (algo/batch.hpp).
//
// Determinism contract (enforced by tests/test_batch_invariance.cpp and the
// CI batch-invariance job): for every *eligible* cell the engine reproduces
// the scalar path's exec::TrialSummary byte for byte, trial for trial --
// the same discipline that keeps fresh and pooled kernels interchangeable.
// The adversary sees the same pid-ordered runnable set and step counts as
// under the kernel, and each machine replicates its algorithm's
// shared-memory op sequence and per-pid draw order exactly.  Trials are
// seeded by the same sim::trial_seed / sim::adversary_seed /
// derive_seed(seed, pid) chains as the scalar paths, so the engine can
// never change a result.
#pragma once

#include <cstdint>
#include <memory>

#include "exec/backend.hpp"
#include "sim/runner.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace rts::sim {

/// One shared-memory request from a batch machine, or its final outcome.
struct BatchAction {
  enum class Kind : std::uint8_t { kRead, kWrite, kFinish };
  Kind kind = Kind::kRead;
  std::uint32_t reg = 0;    ///< bank slot (machine-defined layout)
  std::uint64_t value = 0;  ///< written value (kWrite)
  Outcome outcome = Outcome::kUnknown;  ///< kFinish only

  static BatchAction read(std::uint32_t reg) {
    BatchAction a;
    a.kind = Kind::kRead;
    a.reg = reg;
    return a;
  }
  static BatchAction write(std::uint32_t reg, std::uint64_t value) {
    BatchAction a;
    a.kind = Kind::kWrite;
    a.reg = reg;
    a.value = value;
    return a;
  }
  static BatchAction finish(Outcome outcome) {
    BatchAction a;
    a.kind = Kind::kFinish;
    a.outcome = outcome;
    return a;
  }
};

/// A batched algorithm: an explicit state machine per pid, advanced one
/// granted operation at a time.  Implementations live next to the
/// algorithms they mirror (algo/batch.cpp); each must reproduce the scalar
/// algorithm's op sequence and per-pid PRNG draw order exactly -- that is
/// the whole bitwise-invariance contract.
class BatchAlgorithm {
 public:
  virtual ~BatchAlgorithm() = default;

  /// Number of register slots the machine's layout occupies in the bank.
  virtual std::size_t num_registers() const = 0;
  /// The analytic register count the scalar BuiltLe would declare (lazily
  /// materialized structures declare their full size).
  virtual std::size_t declared_registers() const = 0;

  /// Re-initializes `pid`'s machine state for a fresh trial and runs its
  /// prologue to the first announcement -- the batch analog of
  /// Kernel::rewind + SimProcess::start().  May draw from `rng`.
  virtual BatchAction start(int pid, support::PrngSource& rng) = 0;
  /// Delivers the granted op's result and runs local code to the next
  /// announcement or completion -- the analog of resume_with_result().
  virtual BatchAction resume(int pid, support::PrngSource& rng,
                             std::uint64_t result) = 0;
};

/// Configuration of one batched trial stream (one campaign cell).
struct BatchConfig {
  int n = 0;      ///< capacity the object is built for
  int k = 0;      ///< participants per trial (pids 0..k-1)
  std::uint64_t seed0 = 0;       ///< cell's base seed (sim::trial_seed chain)
  std::uint64_t step_limit = 0;  ///< Kernel::Options::step_limit equivalent
  /// The cell's scheduler.  It must be oblivious and may only step and
  /// crash; the engine reseeds one instance per trial with
  /// adversary_seed(trial_seed) and rebuilds it when reseed() refuses.
  AdversaryFactory adversary;
};

/// A pooled batched trial stream: built once per cell, reseeded per trial.
/// run_trial computes trial `trial` of the cell's seed stream and returns
/// its scalar-identical summary.  Each trial is a pure function of its
/// index.
class BatchStream {
 public:
  virtual ~BatchStream() = default;
  virtual exec::TrialSummary run_trial(int trial) = 0;
  virtual std::size_t declared_registers() const = 0;
};

/// Upper bound of ExecutorOptions::sim_batch_lanes / `--batch N`.  N > 0
/// only selects the batch engine; no lane count changes how it runs.
inline constexpr int kMaxBatchLanes = 64;

/// Builds the engine for a machine + config.
std::unique_ptr<BatchStream> make_batch_stream(
    std::unique_ptr<BatchAlgorithm> algorithm, const BatchConfig& config);

}  // namespace rts::sim
