// Execution traces: the debugging view and the record/replay substrate.
//
// Two layers live here:
//
//  * Human-readable rendering of kernel event logs (format_record /
//    format_trace) -- enable Kernel::Options::track_events, run, format.
//
//  * The compact, versioned, on-disk schedule-trace format behind
//    `rts_bench --record DIR` / `--replay DIR` and the differential
//    conformance harness (exec/conformance.hpp).  Following Lynch-Saias,
//    a trial's nondeterminism is split into the *schedule* (the adversary's
//    grant/crash decisions, stored action by action) and the *coin flips*
//    (per-process PRNG streams, pinned by the trial seed they derive from).
//    A TrialTrace stores both plus a digest of the observable outcome, so a
//    replay that drifts from the recording -- changed algorithm code, changed
//    seed derivation -- fails loudly instead of producing plausible numbers.
//
// File format (one file per campaign cell, extension .rtst): an 8-byte magic
// "RTSTRACE", a varint format version, varint/length-prefixed header and
// trial payload, and a trailing FNV-1a checksum over everything before it.
// All integers are LEB128 varints; the format has no alignment or
// endianness requirements.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rmr/model.hpp"
#include "sim/adversary.hpp"
#include "sim/kernel.hpp"
#include "sim/runner.hpp"
#include "sim/types.hpp"

namespace rts::exec {
class TrialWorkspace;
}  // namespace rts::exec

namespace rts::sim {

/// One line per operation: "#step pid OP reg(name) value [saw writer]".
std::string format_record(const Kernel& kernel, const OpRecord& record);

/// Formats the whole event log (requires track_events).
std::string format_trace(const Kernel& kernel, std::size_t max_lines = 200);

// ---------------------------------------------------------------------------
// Schedule record/replay.

/// Current on-disk format version; bumped on any encoding change.
///
/// v2 (additive) extends v1 with abort schedule actions and RMR accounting:
/// the action varint becomes (pid << 2) | kind (0 = step, 1 = crash,
/// 2 = abort; v1 packed (pid << 1) | crash), the header gains the RMR model
/// after step_limit, and each trial digest gains rmr_total after
/// outcome_digest.  The encoder only emits v2 when a cell actually uses the
/// new features (an abort action or a non-kNone model), so every trace a v1
/// reader could produce still encodes to byte-identical v1 -- the existing
/// corpus replays and regenerates unchanged.  The decoder accepts both.
inline constexpr std::uint64_t kTraceFormatVersion = 2;

/// A fully re-runnable record of one trial: the coin seeds, the schedule,
/// and a digest of what the recorded run observed.
struct TrialTrace {
  std::uint64_t trial_seed = 0;      ///< per-process coin seeds derive from this
  std::uint64_t adversary_seed = 0;  ///< seed the recorded scheduler ran with
  std::vector<Action> actions;       ///< grants and crash events, in order

  // Observable-outcome digest: the replay-divergence oracle.
  std::uint64_t total_steps = 0;
  std::uint64_t max_steps = 0;
  std::uint64_t regs_touched = 0;
  std::int32_t winner = -1;  ///< winning pid, or -1 when no one won
  bool completed = true;     ///< false when the kernel step limit fired
  bool crash_free = true;
  std::uint64_t outcome_digest = 0;  ///< FNV over per-pid (outcome, steps)
  std::uint64_t rmr_total = 0;  ///< RMR tally under the cell's model (v2)
};

/// Everything needed to re-run one campaign cell's trial stream: the cell
/// geometry and identities (validated against the replaying spec) plus the
/// per-trial traces in trial order.
struct CellTrace {
  std::string campaign;
  std::string algorithm;  ///< catalogue name, e.g. "combined-sift"
  std::string adversary;  ///< catalogue name of the *recorded* scheduler
  std::uint32_t cell_index = 0;
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::uint64_t seed0 = 0;
  std::uint64_t step_limit = 0;
  rmr::RmrModel rmr = rmr::RmrModel::kNone;  ///< charging model (v2)
  std::vector<TrialTrace> trials;
};

/// FNV-1a over the per-pid (outcome, steps) sequence of a finished run; the
/// compact stand-in for storing every participant's outcome.
std::uint64_t outcome_digest(const LeRunResult& result);

/// The winning pid of a run, or -1 when no participant won.  One definition
/// shared by trace recording and replay verification, so the two sides
/// cannot drift.
std::int32_t winner_of(const LeRunResult& result);

/// Copies the observable-outcome digest fields of a recorded run into the
/// trace (actions and seeds are filled by the recording caller).
void fill_trace_result(TrialTrace& trace, const LeRunResult& result);

/// Explains the first observable difference between a recorded trial and a
/// replayed result, or returns an empty string when they match exactly.
std::string replay_mismatch(const TrialTrace& trace, const LeRunResult& result);

/// The Kernel::Options a recorded cell runs under, when it is recorded and
/// when it is replayed: its step limit (0 keeps the kernel default) and its
/// RMR charging model.
Kernel::Options cell_kernel_options(std::uint64_t step_limit,
                                    rmr::RmrModel rmr);

/// The replayer: re-drives `actions` for a trial seeded with `trial_seed`
/// under `options`, on a fresh kernel, or through `workspace`'s pooled
/// stream `key` when a workspace is given.  Throws rts::Error when the
/// schedule diverges (a recorded action lands on a pid that is not runnable,
/// or the run asks for more decisions than were recorded); comparing the
/// result with the recorded digest is the caller's replay_mismatch.
LeRunResult replay_actions(const LeBuilder& builder, int n, int k,
                           const std::vector<Action>& actions,
                           std::uint64_t trial_seed,
                           const Kernel::Options& options,
                           exec::TrialWorkspace* workspace = nullptr,
                           std::uint64_t key = 0);

/// Replays one recorded trial of `cell` under the cell's own options
/// (cell_kernel_options), pooled under the cell index when `workspace` is
/// given.
LeRunResult replay_cell_trial(const LeBuilder& builder, const CellTrace& cell,
                              const TrialTrace& trial,
                              exec::TrialWorkspace* workspace = nullptr);

/// The recorder: records trial `trial` of a (builder, n, k, factory, seed0)
/// stream -- seeds derived via trial_seed / adversary_seed, the schedule
/// captured action by action, the digest filled from the run -- and returns
/// the run's result.  Runs on a fresh kernel, or through `workspace`'s
/// pooled stream `key` when a workspace is given.  The campaign --record
/// path, the worst-case hunt and the trace tests all record through it.
LeRunResult record_trial_trace(const LeBuilder& builder, int n, int k,
                               const AdversaryFactory& factory, int trial,
                               std::uint64_t seed0,
                               const Kernel::Options& kernel_options,
                               TrialTrace* out,
                               exec::TrialWorkspace* workspace = nullptr,
                               std::uint64_t key = 0);

/// Serializes a cell trace to the versioned binary format.
std::string encode_cell_trace(const CellTrace& cell);

/// Parses the binary format; returns false and sets *error on malformed,
/// truncated, corrupt, or version-incompatible input.
bool decode_cell_trace(std::string_view bytes, CellTrace* out,
                       std::string* error);

/// File round-trip helpers; return false and set *error on I/O failure or
/// (for reads) malformed content.
bool write_cell_trace_file(const std::string& path, const CellTrace& cell,
                           std::string* error);
bool read_cell_trace_file(const std::string& path, CellTrace* out,
                          std::string* error);

/// Stable per-cell file name inside a trace directory: "cell-0007.rtst".
std::string cell_trace_filename(int cell_index);

}  // namespace rts::sim
