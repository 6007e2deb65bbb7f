// Batch machines for the eligible algorithm catalogue.
//
// Each supported algorithm has an explicit state-machine twin of its
// fiber-based implementation (same shared-memory op sequence, same per-pid
// PRNG draw order), so sim::BatchStream can run a cell's trials without
// fibers and still match the scalar path's TrialSummary byte for byte.
// Machines hold one trial's state, indexed by pid.
// Eligibility is two-sided:
//
//   * algorithm: a batch machine exists for logstar, sift, cascade,
//     ratrace-path, combined-logstar, and combined-sift.  The remaining
//     catalogue entries (original RatRace's backup grid, tournament, aa,
//     abortable-race) keep the scalar kernel.
//   * adversary: the schedule must be a pure function of (seed, pid-ordered
//     runnable set, per-pid step counts) -- random, roundrobin, sequential,
//     and crash qualify; the adaptive neutralizer, abort injection, and
//     trace replay do not.
//
// make_batch_stream() returns nullptr for any ineligible pair; callers fall
// back to the scalar path (the campaign executor does exactly that).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "algo/registry.hpp"
#include "sim/batch.hpp"

namespace rts::algo {

/// The batch scheduler replica for a catalogued adversary, or nullopt when
/// the adversary's decisions cannot be replicated from (seed, runnable,
/// steps) alone.
std::optional<sim::BatchSched> batch_sched(AdversaryId id);

/// Whether `id` has a batch machine.
bool batch_supported(AlgorithmId id);

/// Builds a pooled batch stream for one campaign cell, or nullptr when the
/// (algorithm, adversary) pair is ineligible.  `lanes` is the executor's
/// sim_batch_lanes knob: it must lie in [1, sim::kMaxBatchLanes] (throws
/// rts::Error otherwise) and does not change how the stream runs.
std::unique_ptr<sim::BatchStream> make_batch_stream(
    AlgorithmId algorithm, AdversaryId adversary, int n, int k, int lanes,
    std::uint64_t seed0, std::uint64_t step_limit);

}  // namespace rts::algo
