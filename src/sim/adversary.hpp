// Adversary framework.
//
// The paper distinguishes four adversary classes by what they may observe
// when deciding which process takes the next step:
//
//   * adaptive            -- everything, including past coin flips.
//   * location-oblivious  -- everything in the past, plus the kind and
//                            argument of pending ops, but NOT the target
//                            register of a pending op whose location was
//                            chosen at random (Fig. 1, line 3/4).
//   * R/W-oblivious       -- everything in the past, plus target registers of
//                            pending ops, but NOT whether a pending op is a
//                            read or a write when that was chosen at random
//                            (the Alistarh-Aspnes sifting coin).
//   * oblivious           -- must fix the whole schedule in advance.
//
// The KernelView enforces these rules mechanically: the adversary receives a
// view parameterized by its declared class, and hidden fields come back as
// std::nullopt.  Deterministically-decided pending fields are visible to
// every non-oblivious adversary -- they are inferable from the visible past
// plus the program text anyway, so hiding them would not model anything.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/types.hpp"

namespace rts::sim {

enum class AdversaryClass : std::uint8_t {
  kOblivious,
  kLocationOblivious,
  kRWOblivious,
  kAdaptive,
};

const char* to_string(AdversaryClass clazz);

/// What an adversary of a given class may see of one pending operation.
struct PendingOpView {
  int pid = -1;
  std::optional<OpKind> kind;
  std::optional<RegId> reg;
  std::optional<std::uint64_t> value;  // write argument, when kind is visible
};

/// Class-filtered window onto a running trial, handed to Adversary::next().
/// It reads the runnable set, the per-pid step counts and the step total
/// from whatever the engine keeps, so the same adversaries schedule both
/// the fiber kernel (sim/kernel.hpp) and the batch engine (sim/batch.hpp).
/// Only pending ops need a Kernel: a kernel-less view has none to show, so
/// it is oblivious by construction.
class KernelView {
 public:
  KernelView(const Kernel& kernel, AdversaryClass clazz);
  /// Kernel-less, oblivious view over an engine's own state: `steps` holds
  /// one count per process, indexed by pid.  Every argument must outlive
  /// the view.
  KernelView(const std::vector<int>& runnable,
             const std::vector<std::uint64_t>& steps,
             const std::uint64_t& total_steps);

  AdversaryClass clazz() const { return clazz_; }
  int num_processes() const { return static_cast<int>(steps_->size()); }
  std::uint64_t total_steps() const { return *total_steps_; }
  std::uint64_t steps(int pid) const {
    return (*steps_)[static_cast<std::size_t>(pid)];
  }

  /// Pids with a pending operation, in pid order.  Every adversary class may
  /// use this: the standard convention for oblivious schedules is that steps
  /// of finished processes are skipped.  Backed by the engine's own runnable
  /// set, so a view allocates nothing.
  const std::vector<int>& runnable() const { return *runnable_; }
  bool is_runnable(int pid) const;

  /// The class-filtered view of pid's pending op.  Precondition: runnable.
  /// An oblivious view shows only the pid and never touches a kernel.
  PendingOpView pending(int pid) const;

  /// Full kernel access; permitted for the adaptive adversary only.
  const Kernel& adaptive_full_access() const;

 private:
  const Kernel* kernel_;  // null for a kernel-less view
  AdversaryClass clazz_;
  const std::vector<int>* runnable_;
  const std::vector<std::uint64_t>* steps_;
  const std::uint64_t* total_steps_;
};

/// One scheduling decision.  kAbort flags a pid's abort request (an
/// abortable algorithm must stop trying and return abort-or-lose); it
/// consumes no step budget and is a lenient no-op on finished processes.
struct Action {
  enum class Kind : std::uint8_t { kStep, kCrash, kAbort };
  Kind kind = Kind::kStep;
  int pid = -1;

  static Action step(int pid) { return Action{Kind::kStep, pid}; }
  static Action crash(int pid) { return Action{Kind::kCrash, pid}; }
  static Action abort_req(int pid) { return Action{Kind::kAbort, pid}; }
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual AdversaryClass clazz() const = 0;

  /// Chooses the next action.  Must return a step for a runnable pid or a
  /// crash for a live pid; the kernel asserts this.
  virtual Action next(const KernelView& view) = 0;

  /// Restores the adversary to the state it would have as freshly
  /// constructed with `seed` (and its original non-seed parameters), or
  /// returns false if it cannot.  Pooled trial workspaces reseed their
  /// per-stream adversary between trials instead of reallocating one; an
  /// adversary that returns true here must behave bit-for-bit like a fresh
  /// instance.  The default keeps bespoke adversaries safe: not poolable.
  virtual bool reseed(std::uint64_t /*seed*/) { return false; }
};

}  // namespace rts::sim
