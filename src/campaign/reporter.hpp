// Campaign output backends.
//
// Three renderings of the same CellResult data:
//  * table  -- aligned ASCII via support/table, one table per
//              (backend, adversary) group; the human-facing form the bench
//              binaries print.
//  * jsonl  -- one JSON object per line (a campaign header, then one line
//              per cell); the machine-readable form consumed by perf
//              trajectory tracking.  See EXPERIMENTS.md for the schema.
//  * csv    -- one row per cell, flat columns, for spreadsheets/plotting.
//
// Reporters emit only data that is a deterministic function of the spec and
// the trial summaries (never executor wall-clock or worker counts), so for
// sim campaigns the bytes are identical for any worker count -- the
// property the determinism tests pin down.
//
// Schema stability: campaigns that use only the sim backend and
// non-crashing adversaries render the exact historical byte layout.  A
// campaign that declares an hw backend or a crashing adversary opts into
// the *extended* schema (backend / crashed_runs / unfinished / hw wall-time
// fields); see extended_schema().
//
// The BENCH_*.json trajectory writer is separate: one JSON document per
// campaign run with the spec hash and executor wall time, explicitly
// outside the deterministic-bytes contract.
//
// Every JSON document here is assembled through support::JsonWriter.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "campaign/executor.hpp"
#include "support/json.hpp"

namespace rts::campaign {

enum class ReportFormat { kTable, kJsonl, kCsv };

std::optional<ReportFormat> parse_format(std::string_view name);

/// True when the campaign opts into the extended reporter schema: any
/// non-sim backend, or any adversary that may crash processes.
bool extended_schema(const CampaignSpec& spec);

/// True when the campaign opts into the RMR reporter fields: any non-kNone
/// RMR model on the grid, or any adversary that may issue abort requests.
/// Orthogonal to (and additive over) extended_schema(), so every pre-RMR
/// campaign keeps its historical bytes.
bool rmr_schema(const CampaignSpec& spec);

/// True when the run opts into the chaos reporter fields: a fault plan was
/// active or the hw deadline/retry service was armed.  Keyed off the
/// *result* (chaos is an executor option, not a spec axis), additive over
/// both schemas above, so chaos-free runs keep their historical bytes.
bool chaos_schema(const CampaignResult& result);

void report_table(const CampaignResult& result, std::FILE* out);
void report_jsonl(const CampaignResult& result, std::FILE* out);
/// CSV is positional, so a file sink shared by several campaigns must fix
/// one column set up front: `force_extended` / `force_rmr` render the
/// extended / RMR columns even for a campaign that would not opt in by
/// itself (the CLI passes "any campaign of the invocation opts in").
void report_csv(const CampaignResult& result, std::FILE* out,
                bool force_extended = false, bool force_rmr = false);

void report(const CampaignResult& result, ReportFormat format, std::FILE* out);

/// One machine-readable trajectory document per campaign run: spec hash,
/// per-cell aggregates, and executor wall time.  Consumed by BENCH_*.json
/// perf tracking; deliberately includes nondeterministic timing.
void report_bench_json(const CampaignResult& result, std::FILE* out);

/// The MANIFEST.json of a recorded trace directory (`rts_bench --record`):
/// campaign identity, spec hash, trace format version, and the recorded sim
/// cells.  `trials_recorded` (indexed by cell index) is the number of
/// trials actually stored in each cell's .rtst file -- on a budget-
/// truncated run that is the contiguous ran prefix, which can be smaller
/// than the cell's trials_run; null means every cell stored trials_run.
/// Deterministic for a fixed spec and complete run -- grep-able by CI and
/// humans; the binary .rtst headers are what --replay validates.
void report_trace_manifest(const CampaignResult& result, std::FILE* out,
                           const std::vector<int>* trials_recorded = nullptr);

/// `"key":{"unit":..,"count":..,"p50":..,...,"max":..}` for every campaign
/// and soak document; callers that keep an empty histogram absent skip it.
void write_latency(support::JsonWriter& json, std::string_view key,
                   const telemetry::LatencyHistogram& latency,
                   const char* unit);

/// `"perf":{"samples":..,<valid counters>}`.  Callers write it only when
/// perf.any(): an unavailable counter is absent, never rendered as a zero.
void write_perf(support::JsonWriter& json, const telemetry::PerfCounts& perf);

/// Renders a whole campaign through one reporter into a string (used by the
/// determinism tests and the CLI's --json/--csv file sinks).
std::string render_to_string(const CampaignResult& result, ReportFormat format);

}  // namespace rts::campaign
