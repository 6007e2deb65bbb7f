// The rts_bench command-line driver: one binary that runs any preset or an
// ad-hoc grid through the parallel executor and any reporter.
//
//   rts_bench --list
//   rts_bench --preset ratrace --workers 8
//   rts_bench --preset logstar,sifting --json results.jsonl
//   rts_bench --algos logstar,cascade --adversaries random,roundrobin
//             --ks 4,16,64 --trials 50 --seed 9 --format csv
//   rts_bench --backend hw --preset hw-smoke
//   rts_bench --backend sim,hw --algos tournament --ks 2,4 --bench out/
//
// Every flag is one row of the flag table in cli.cpp: its name, metavar,
// help text, value parser and range, and the run modes (campaign grid,
// soak, hunt, minimize, conform) whose code reads it.  Parsing, the
// --help option lines and the mode check are all generated from that
// table, so a new flag is one row.  An invocation resolves to exactly one
// mode; a flag given in a mode whose code does not read it exits 2 with a
// diagnostic instead of being silently ignored.
//
// Legacy bench binaries call run_preset() directly and keep only their
// bespoke (non-grid) experiments.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "campaign/executor.hpp"
#include "campaign/presets.hpp"

namespace rts::campaign {

// Checked numeric flag parsing.  Every rts_bench numeric flag goes through
// these instead of bare atoi/strtoull/atof, which silently turn "banana"
// into 0 and "-5" into garbage: the whole token must parse (no trailing
// junk), the value must fit, and it must clear the flag's documented
// minimum.  On failure they return std::nullopt after printing
// "rts_bench: --flag ..." to stderr, and the CLI exits nonzero.
std::optional<long long> parse_integer_flag(const char* flag,
                                            std::string_view text,
                                            long long min_value,
                                            long long max_value);
std::optional<std::uint64_t> parse_u64_flag(const char* flag,
                                            std::string_view text,
                                            std::uint64_t min_value);
std::optional<double> parse_double_flag(const char* flag,
                                        std::string_view text,
                                        double min_exclusive);

/// Runs one preset through the executor with default reporting to stdout:
/// banner + ASCII table.  Used by the thin per-table bench binaries.
/// Returns the result so callers can chain bespoke post-processing.
CampaignResult run_preset(std::string_view name,
                          const ExecutorOptions& options = {});

/// Exit status of a campaign run whose reports include errored trials
/// (distinct from 1 = run failure, 2 = usage error, 130 = interrupted).
inline constexpr int kExitErroredTrials = 3;

/// Full CLI entry point for the rts_bench binary.
int run_cli(int argc, char** argv);

}  // namespace rts::campaign
