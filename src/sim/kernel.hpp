// The simulation kernel: owns the shared memory and the processes, executes
// one shared-memory operation per grant, and exposes both
//  * a low-level single-step API (peek pending ops, grant, crash) used by the
//    attack drivers and the covering-argument lower-bound driver, and
//  * a high-level run loop driven by an Adversary.
//
// The kernel is strictly single-threaded and deterministic given the process
// randomness seeds and the sequence of grants.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fiber/fiber.hpp"
#include "rmr/model.hpp"
#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "sim/runnable.hpp"
#include "sim/types.hpp"
#include "support/assert.hpp"

namespace rts::sim {

class Adversary;

class Kernel {
 public:
  struct Options {
    /// Abort knob: maximum total grants before run() reports divergence.
    std::uint64_t step_limit = 10'000'000;
    /// Record every executed op in an event log (costs memory).
    bool track_events = false;
    /// RMR charging model; kNone keeps the memory hot path untouched.
    rmr::RmrModel rmr_model = rmr::RmrModel::kNone;
  };

  Kernel();
  explicit Kernel(Options options);

  SimMemory& memory() { return memory_; }
  const SimMemory& memory() const { return memory_; }

  /// Adds a process running `body`; returns its pid (0-based, dense).
  /// Must not be called after start().
  int add_process(std::function<void(Context&)> body,
                  std::unique_ptr<support::RandomSource> rng);
  /// Same, with the process fiber on an adopted caller-owned stack
  /// (workspace stack pooling).
  int add_process(std::function<void(Context&)> body,
                  std::unique_ptr<support::RandomSource> rng,
                  fiber::MmapStack stack);

  /// Runs every process's prologue up to its first pending-op announcement.
  /// A process crashed before start() never runs its prologue.
  void start();
  bool started() const { return started_; }

  /// Rewinds the kernel for another run over the same process set: register
  /// values, traffic counters, the event log, and every process (fiber,
  /// steps, stage, pending op) return to their pre-start() state.  Process
  /// bodies and randomness sources are kept; callers reseed the sources
  /// (support::PrngSource::reseed) for the next trial.  Valid from any
  /// state -- crashed or starved processes leave nothing behind.
  void rewind();

  int num_processes() const { return static_cast<int>(processes_.size()); }
  const SimProcess& process(int pid) const;
  SimProcess::State state(int pid) const { return process(pid).state(); }
  bool runnable(int pid) const { return process(pid).runnable(); }
  const PendingOp& pending(int pid) const { return process(pid).pending(); }
  std::uint64_t stage(int pid) const { return process(pid).stage(); }
  std::uint64_t steps(int pid) const {
    RTS_ASSERT(pid >= 0 && pid < num_processes());
    return steps_[static_cast<std::size_t>(pid)];
  }

  /// All pids currently announcing a pending op, in pid order.
  std::vector<int> runnable_pids() const;
  /// Allocation-free variant for the per-step scheduling loop: the kernel's
  /// pid-ordered runnable set (sim/runnable.hpp), kept exact at all times.
  /// start() builds it once after the prologues; a finish or crash erases
  /// one pid (binary search), so a trial pays O(k) per finish in memmove at
  /// worst and never rescans the processes.  Mutated by
  /// grant()/crash()/rewind(); do not hold the reference across them.
  const std::vector<int>& runnable_pids_cached() const {
    return runnable_.pids();
  }
  bool all_done() const;

  /// Executes pid's pending op and resumes it until the next announcement or
  /// completion.  Precondition: runnable(pid).
  void grant(int pid);

  /// Crashes a live process; it never takes another step.
  void crash(int pid);

  /// Flags an abort request for pid.  Idempotent; a lenient no-op on
  /// finished or crashed processes (the adversary may race completion).
  /// Consumes no step budget -- only granted ops count against the limit.
  void abort_request(int pid);
  bool abort_requested(int pid) const { return process(pid).abort_requested(); }
  /// Number of distinct processes with an abort request this run.
  int abort_requests() const { return abort_requests_; }

  /// RMR tallies for the current run; all-zero when Options::rmr_model is
  /// kNone (the counter is never attached to the memory).
  const rmr::RmrCounter& rmr() const { return rmr_; }

  std::uint64_t total_steps() const { return total_steps_; }

  /// Observer invoked after every executed operation.
  void set_op_observer(std::function<void(const OpRecord&)> observer) {
    op_observer_ = std::move(observer);
  }
  const std::vector<OpRecord>& event_log() const { return event_log_; }

  /// Drives the kernel with `adversary` until all processes are finished or
  /// crashed, or the step limit is hit.  Returns false on step-limit abort.
  bool run(Adversary& adversary);

 private:
  friend class SimProcess;
  friend class Context;
  friend class KernelView;  // reads the runnable set and step counters

  Options options_;
  SimMemory memory_;
  rmr::RmrCounter rmr_;
  std::vector<std::unique_ptr<SimProcess>> processes_;
  fiber::ExecutionContext kernel_slot_;
  bool started_ = false;
  std::uint64_t total_steps_ = 0;
  std::vector<std::uint64_t> steps_;  // granted ops per pid
  int abort_requests_ = 0;
  std::function<void(const OpRecord&)> op_observer_;
  std::vector<OpRecord> event_log_;
  RunnableVector runnable_;  // empty until start()
};

}  // namespace rts::sim
