// Schedule minimization: ddmin-style delta debugging over recorded
// adversarial schedules.
//
// A hunted worst-case trial (sim/trace.hpp) is a long action sequence in
// which only some grants actually force the bad behavior -- the paper's
// adversary arguments are about *which* interleavings matter, and a
// thousand-action recording hides that structure.  minimize_trial() removes
// schedule actions while a pluggable TracePredicate keeps holding on the
// replayed candidate, converging to a 1-minimal schedule: removing any
// single remaining action breaks the predicate.  The result is a standalone
// single-trial CellTrace suitable for the corpus in tests/corpus/, verified
// bit-for-bit by the differential conformance harness (exec/conformance.hpp).
//
// Replay convention for shortened schedules: a candidate is replayed as a
// schedule *prefix* -- the kernel's step budget is exactly the candidate's
// grant count, so when the actions run out the remaining participants are
// starved (never granted again), precisely like a recording cut off by the
// step limit.  Minimized cells store that budget as their step_limit, which
// makes them ordinary starved-replay traces for every existing consumer:
// the replayer (sim::replay_cell_trial), the campaign --replay path, and
// all three conformance paths (fresh sim, pooled sim, scheduled hw) replay
// them unchanged.
//
// Minimization is deterministic (a pure function of the input trace and
// predicate) and idempotent: the last ddmin pass runs every granularity
// without finding a removable chunk, which is exactly the first pass a
// re-run would perform.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.hpp"
#include "sim/trace.hpp"

namespace rts::sim {

/// What a predicate may inspect about one candidate schedule's replay.
struct CandidateRun {
  const CellTrace* cell = nullptr;    ///< geometry + identities
  const TrialTrace* trial = nullptr;  ///< seeds of the trial being minimized
  const std::vector<Action>* actions = nullptr;  ///< the candidate schedule
  const LeRunResult* result = nullptr;  ///< fresh-kernel replay (reference)
  /// Pooled-workspace replay of the same candidate; only predicates that
  /// declare needs_pooled get one.  Null for such a predicate when the
  /// pooled replay itself errored while the fresh one succeeded -- for the
  /// divergence oracle that asymmetry is itself a divergence.
  const LeRunResult* pooled = nullptr;
};

/// A pluggable property of a replayed schedule.  `spec` is the canonical
/// parseable rendering ("max-steps>=120", "violation", ...), carried into
/// corpus manifests so a checked-in trace names the property it witnesses.
struct TracePredicate {
  std::string spec;
  bool needs_pooled = false;
  std::function<bool(const CandidateRun&)> holds;
};

// ---------------------------------------------------------------------------
// Predicate library.

/// Some participant's individual step count reaches the threshold (the
/// paper's worst cases are about max individual step complexity).
TracePredicate pred_max_steps_at_least(std::uint64_t threshold);

/// The *winner* exists and its step count reaches the threshold: keeps the
/// election of the slow winner intact while everything irrelevant to it
/// minimizes away.
TracePredicate pred_winner_steps_at_least(std::uint64_t threshold);

/// Total step count across all participants reaches the threshold.
TracePredicate pred_total_steps_at_least(std::uint64_t threshold);

// Note the predicate families are all "lower-bound-shaped": they demand
// work the adversary had to force (step thresholds, a violation, a
// divergence).  Upper-bound-shaped properties -- "someone starves", "no
// winner" -- are trivially satisfiable under the prefix replay convention
// (any one-grant prefix starves everyone else) and would minimize every
// schedule to a degenerate single grant, so none is offered.

/// The replay records a safety/liveness violation (e.g. two winners) --
/// never holds on a healthy tree; the hunting predicate for algorithm bugs.
TracePredicate pred_safety_violation();

/// Fresh-kernel and pooled-workspace replays of the candidate disagree on
/// any observable -- never holds while the workspace determinism guarantee
/// stands; the hunting predicate for execution-stack bugs.
TracePredicate pred_backend_divergence();

/// The trial's RMR total (remote memory references under the cell's
/// charging model, see rmr/model.hpp) reaches the threshold.  Demands a
/// pooled replay and that it agree with the fresh one on the RMR total, so
/// a minimized rmr>=N corpus trace also witnesses the pooled-accounting
/// identity.  Meaningful only on cells recorded with a non-kNone model (on
/// others every replay tallies zero and the predicate never holds).
TracePredicate pred_rmr_at_least(std::uint64_t threshold);

/// A parsed predicate spec: a family name plus an optional ">=N" threshold.
/// Threshold families ("max-steps", "winner-steps", "total-steps") may omit
/// the threshold in contexts that supply one (a hunt fills in the worst
/// observed value); flag families ("violation", "divergence") never carry
/// one.
struct PredicateSpec {
  std::string family;
  std::optional<std::uint64_t> threshold;
};

/// Parses "family" or "family>=N"; std::nullopt on an unknown family or a
/// malformed/mismatched threshold.
std::optional<PredicateSpec> parse_predicate_spec(std::string_view text);

/// Materializes a parsed spec.  Throws rts::Error when a threshold family
/// is missing its threshold.
TracePredicate make_predicate(const PredicateSpec& spec);

/// The metric a hunt ranks trials by for this family (higher is worse):
/// the thresholded quantity itself, or 1/0 for flag families.  Throws
/// rts::Error for "divergence", which needs two replays per trial and is
/// not rankable from one result.
std::uint64_t hunt_metric(const PredicateSpec& spec, const LeRunResult& result);

/// Catalogue of predicate families for --list and usage text.
struct PredicateFamilyInfo {
  const char* name;
  bool thresholded;
  const char* description;
};
const std::vector<PredicateFamilyInfo>& predicate_families();

/// Whether `family` takes a ">=N" threshold (false for unknown names).  The
/// one source of truth the hunt and the CLI both consult when deciding to
/// fill a missing threshold from the worst/recorded metric.
bool predicate_family_thresholded(std::string_view family);

// ---------------------------------------------------------------------------
// Candidate replay and the minimizer.

/// The step budget a (possibly shortened) schedule replays under: its grant
/// count.  Stored as the minimized cell's step_limit.
std::uint64_t schedule_step_budget(const std::vector<Action>& actions);

/// Replays `actions` as a schedule prefix for a trial of the cell's stream
/// seeded with `trial_seed` (see the convention above), tallying RMRs under
/// `rmr_model`, through replay_actions: fresh, or pooled in `workspace`.
/// Returns std::nullopt when the candidate is not a well-formed schedule
/// for this trial: a grant or crash targeting a pid that is not runnable at
/// that point, or a schedule with no grants at all.
std::optional<LeRunResult> replay_schedule_prefix(
    const LeBuilder& builder, int n, int k, const std::vector<Action>& actions,
    std::uint64_t trial_seed, rmr::RmrModel rmr_model = rmr::RmrModel::kNone,
    exec::TrialWorkspace* workspace = nullptr);

struct MinimizeStats {
  std::size_t original_actions = 0;
  std::size_t minimized_actions = 0;
  int evals = 0;   ///< candidate replays performed
  int passes = 0;  ///< ddmin sweeps until the fixpoint pass found nothing
};

struct MinimizeResult {
  /// Standalone single-trial cell: the input cell's identity and geometry,
  /// the minimized trial (actions + recomputed outcome digest), and
  /// step_limit = the minimized schedule's step budget.
  CellTrace cell;
  MinimizeStats stats;
};

/// Delta-debugs trial `trial_index` of `cell` against `predicate`.
/// `builder` must be the factory for cell.algorithm (callers resolve it via
/// algo::sim_builder; taking it as a parameter keeps sim/ independent of the
/// algorithm catalogue).
///
/// The input trial is validated first: it must replay to its recorded
/// outcome digest under the cell's own step limit (a corrupted or divergent
/// trace is rejected with rts::Error, never "minimized" into something
/// unrelated), and the predicate must hold on it.  The returned schedule
/// satisfies the predicate, is 1-minimal under it, and its cell replays
/// cleanly through the standard replay path -- callers can hand it straight
/// to exec::check_cell.
MinimizeResult minimize_trial(const LeBuilder& builder, const CellTrace& cell,
                              std::size_t trial_index,
                              const TracePredicate& predicate);

}  // namespace rts::sim
