// Thread harness for running leader elections / TAS on real hardware:
// builds an algorithm instance from the unified algo::AlgorithmId catalogue,
// releases `k` threads through a barrier, and collects outcomes, per-thread
// shared-op counts, and wall-clock time.
//
// Hardware trials summarize into the same exec::TrialSummary contract as
// simulator trials (see exec/backend.hpp), so campaigns, aggregates, and
// reporters are backend-agnostic.
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "algo/platform.hpp"
#include "algo/registry.hpp"
#include "exec/backend.hpp"
#include "fault/backoff.hpp"
#include "fault/plan.hpp"
#include "hw/platform.hpp"
#include "sim/types.hpp"
#include "telemetry/perf_counters.hpp"

namespace rts::hw {

/// Constructs the algorithm for up to n processes on the hardware platform.
/// Returns nullptr for kNativeAtomic (handled specially by the harness).
/// Requires algo::supports(id, exec::Backend::kHw).
std::unique_ptr<algo::ILeaderElect<HwPlatform>> make_hw_le(
    algo::AlgorithmId id, HwPlatform::Arena arena, int n);

/// Per-run knobs of one election (run_hw_le, HwTrialPool::run).
struct HwRunOptions {
  /// Shared-op budget per participant context (the step-limit watchdog; see
  /// hw::StepLimitReached).  Participants exceeding it abort; the trial
  /// reports them unfinished and is marked incomplete instead of hanging.
  std::uint64_t step_limit = UINT64_MAX;
  /// Wall-clock deadline for the whole election, nanoseconds; 0 disables.
  /// A watchdog thread arms a cancel flag at the deadline and participants
  /// throw ElectionCancelled at their next shared op -- the run returns
  /// with timed_out set instead of hanging the caller.
  std::uint64_t deadline_ns = 0;
  /// Per-participant fault injection for this election (see
  /// fault/plan.hpp); the pointee must outlive the run.  Null disables.
  const fault::TrialFaults* faults = nullptr;
};

struct HwRunResult {
  int n = 0;  ///< capacity the object was built for
  int k = 0;  ///< participating threads
  std::vector<sim::Outcome> outcomes;
  std::vector<std::uint64_t> ops;   // shared-memory ops per thread
  double wall_seconds = 0.0;
  int winners = 0;
  std::size_t registers = 0;        // materialized in the pool
  std::size_t declared_registers = 0;
  /// False when the step-limit watchdog fired or the deadline cancelled
  /// the election.
  bool completed = true;
  bool timed_out = false;  ///< the deadline watchdog cancelled this run
  /// Faults actually dealt to this run's participants (from the
  /// HwRunOptions::faults plan; all zero without one).
  int no_shows = 0;
  int stalls = 0;
  int delays = 0;
  std::vector<std::string> violations;
};

/// Runs one election: builds the object for `n` threads and releases `k`
/// participants (1 <= k <= n), mirroring sim::run_le_once.  Each thread
/// calls elect() exactly once; the harness checks the exactly-one-winner
/// invariant.  A one-shot HwTrialPool without perf counters.
HwRunResult run_hw_le(algo::AlgorithmId id, int n, int k, std::uint64_t seed,
                      HwRunOptions options = {});

/// Convenience: the common "object sized for its load" case, n = k.
inline HwRunResult run_hw_le(algo::AlgorithmId id, int k, std::uint64_t seed,
                             HwRunOptions options = {}) {
  return run_hw_le(id, k, k, seed, options);
}

/// The backend-agnostic per-trial slice of a hardware run; feeds the same
/// exec::accumulate_trial fold as simulator trials.
exec::TrialSummary summarize_trial(const HwRunResult& result);

/// Runs trial `trial` of the (id, n, k, seed0) stream with the same
/// per-trial seed derivation sim::run_le_trial uses, so a campaign cell's
/// trial stream means the same thing on either backend.
HwRunResult run_hw_trial(algo::AlgorithmId id, int n, int k, int trial,
                         std::uint64_t seed0, HwRunOptions options = {});

/// Pool-lifetime knobs (as opposed to the per-run HwRunOptions).
struct HwPoolOptions {
  /// Open a per-participant perf_event counter group (cycles, instructions,
  /// cache-misses, dTLB-misses) and bracket each election with it.
  /// Degrades to a no-op where perf_event_open is unavailable; see
  /// telemetry::PerfCounterGroup.
  bool perf_counters = true;
  /// CPU affinity list: participant pid is pinned to
  /// pin_cpus[pid % pin_cpus.size()].  Empty = unpinned.  On NUMA boxes,
  /// passing one socket's CPU list keeps the election's cache traffic
  /// on-node; interleaving two sockets' CPUs measures cross-node RMRs.
  std::vector<int> pin_cpus;
};

/// Persistent pool of `k` parked participant threads reused across hardware
/// trials: the per-trial cost drops from k thread spawns + joins to two
/// barrier phases.  One pool per campaign cell (or per run_hw_many stream);
/// run() is not thread-safe -- callers serialize trials, which the campaign
/// executor does anyway to keep measured thread counts honest.
///
/// The algorithm instance and its register pool stay per-trial: unlike sim
/// kernels, hw object graphs race real threads, so each trial gets a fresh
/// build and only the threads are recycled.
class HwTrialPool {
 public:
  explicit HwTrialPool(int k, HwPoolOptions pool_options = {});
  ~HwTrialPool();

  HwTrialPool(const HwTrialPool&) = delete;
  HwTrialPool& operator=(const HwTrialPool&) = delete;

  int capacity() const { return k_; }
  std::uint64_t trials_run() const { return trials_run_; }

  /// Summed per-participant counter readings over every election this pool
  /// has run.  All-invalid when perf was disabled, unavailable on this
  /// machine, or any participant failed to open its group (a partial sum
  /// would undercount, which is worse than honestly reporting nothing).
  /// Call between trials only (same serialization rule as run()).
  telemetry::PerfCounts perf_totals() const;

  /// One election with the pool's k participants, mirroring
  /// run_hw_le(id, n, k, seed, options).
  HwRunResult run(algo::AlgorithmId id, int n, std::uint64_t seed,
                  HwRunOptions options = {});

  /// Trial-indexed form mirroring run_hw_trial's seed derivation.
  HwRunResult run_trial(algo::AlgorithmId id, int n, int trial,
                        std::uint64_t seed0, HwRunOptions options = {});

 private:
  void participant(int pid);
  void watchdog_main();

  int k_;
  // Participants park on the condition variable between trials (and during
  // construction), so teardown works however many threads actually spawned;
  // the barrier -- whose k+1 parties all provably exist once the
  // constructor returns -- only lines up the start and completion of one
  // trial.
  std::mutex mu_;
  std::condition_variable job_cv_;
  std::uint64_t job_seq_ = 0;  // guarded by mu_
  bool stop_ = false;          // guarded by mu_
  std::barrier<> gate_;        // k participants + the driving thread
  // Per-trial job state: written by run() before publishing the job
  // sequence number, read by participants after waking on it.
  algo::ILeaderElect<HwPlatform>* le_ = nullptr;
  std::atomic<std::uint64_t>* native_bit_ = nullptr;
  std::uint64_t seed_ = 0;
  std::uint64_t step_limit_ = UINT64_MAX;
  std::vector<sim::Outcome>* outcomes_ = nullptr;
  std::vector<std::uint64_t>* ops_ = nullptr;
  const fault::TrialFaults* faults_ = nullptr;
  bool deadline_armed_ = false;  ///< job state like seed_; read after wake
  std::atomic<int> aborted_{0};
  std::atomic<int> cancelled_{0};  ///< participants unwound on the deadline
  std::uint64_t trials_run_ = 0;
  // Deadline watchdog: one persistent thread parked on its own condition
  // variable; run() publishes an armed job's deadline, the watchdog
  // wait_until()s it, and sets cancel_ if the completion barrier hasn't
  // been reached by then.  All watchdog state is guarded by mu_.  The
  // timed wait re-checks job_seq_ against the sequence it armed for: a
  // spurious or late wake after the job completed and the *next* job was
  // published must not fire the stale deadline into the new election.
  std::condition_variable watchdog_cv_;
  std::chrono::steady_clock::time_point watchdog_deadline_{};
  bool watchdog_armed_ = false;
  bool job_done_ = true;
  std::atomic<bool> cancel_{false};
  HwPoolOptions pool_options_;
  // Slot pid is written only by participant pid, between the election and
  // the completion barrier (which orders it before run() returns).
  std::vector<telemetry::PerfCounts> perf_slots_;
  std::atomic<int> perf_missing_{0};  ///< participants without a counter group
  std::vector<std::jthread> threads_;
  std::jthread watchdog_;  ///< last member: joins before the state above dies
};

/// One election under the deadline-retry policy shared by campaign hw cells
/// and the soak service.  Attempt 0 runs on `seed`, attempt a > 0 on
/// derive_seed(seed, kRetrySalt + a), so a retry deals fresh fault coins
/// from `faults` (when active) without perturbing any other seed's stream.
/// A timed-out attempt is retried, up to `max_retries` times, after
/// backoff.delay_us(a, seed).  The final attempt is kept either way: a
/// still-timed-out election is reported as such, never as a fabricated
/// completion.
struct HwRetriedRun {
  HwRunResult run;             ///< the final attempt
  int attempts = 0;            ///< elections run, at least one
  int violating_attempts = 0;  ///< attempts with a non-empty violations list
  fault::FaultCounters dealt;  ///< faults dealt over every attempt
};

/// Seed-stream salt of retry attempts (see run_with_retries).
inline constexpr std::uint64_t kRetrySalt = 0xfa01'7e72;

HwRetriedRun run_with_retries(HwTrialPool& pool, algo::AlgorithmId id, int n,
                              std::uint64_t seed, HwRunOptions options,
                              const fault::FaultPlan& faults, int max_retries,
                              const fault::BackoffPolicy& backoff);

/// Runs `trials` elections (n = k) through one persistent HwTrialPool and
/// the shared trial-order fold.
exec::Aggregate run_hw_many(algo::AlgorithmId id, int k, int trials,
                            std::uint64_t seed0, HwRunOptions options = {});

}  // namespace rts::hw
