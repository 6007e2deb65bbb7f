// Batch machines for the eligible algorithm catalogue.
//
// Each supported algorithm has an explicit state-machine twin of its
// fiber-based implementation (same shared-memory op sequence, same per-pid
// PRNG draw order), so sim::BatchStream can run a cell's trials without
// fibers and still match the scalar path's TrialSummary byte for byte.
// Machines hold one trial's state, indexed by pid.  The engine schedules
// with the cell's own catalogued adversary (algo::adversary_factory), so
// eligibility is two-sided:
//
//   * algorithm: a batch machine exists for logstar, sift, cascade,
//     ratrace-path, combined-logstar, and combined-sift.  The remaining
//     catalogue entries (original RatRace's backup grid, tournament, aa,
//     abortable-race) keep the scalar kernel.
//   * adversary: the catalogue must class it oblivious (the engine's view
//     shows no pending ops), and it must neither request aborts (machines
//     cannot see them) nor need a recorded trace -- today random,
//     roundrobin, sequential, and crash.
//
// make_batch_stream() returns nullptr for any ineligible pair; callers fall
// back to the scalar path (the campaign executor does exactly that).
#pragma once

#include <cstdint>
#include <memory>

#include "algo/registry.hpp"
#include "sim/batch.hpp"

namespace rts::algo {

/// Whether the batch engine can schedule with `id`: oblivious, abort-free,
/// and constructible from a seed (AdversaryInfo's clazz, aborts and
/// from_trace).
bool batch_eligible(AdversaryId id);

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
