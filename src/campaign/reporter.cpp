#include "campaign/reporter.hpp"

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/perf_counters.hpp"

namespace rts::campaign {

using support::fmt_double;

namespace {

/// RFC 4180 field: quoted (inner quotes doubled) only when it holds a comma,
/// a quote, or a line break; anything else is written as is.
std::string csv_field(std::string_view text) {
  if (text.find_first_of(",\r\n") == std::string_view::npos &&
      text.find('"') == std::string_view::npos) {
    return std::string(text);
  }
  std::string out(1, '"');
  for (const char c : text) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void write_summary(support::JsonWriter& json, std::string_view key,
                   const support::Accumulator& acc) {
  const support::Summary s = support::summarize(acc);
  json.object(key)
      .field("mean", s.mean, "stddev", s.stddev, "min", s.min,
             "p50", s.p50, "p95", s.p95, "max", s.max, "ci95", s.ci95)
      .end_object();
}

/// Latency histogram unit per backend: sim cells record per-trial max step
/// counts, hw cells record wall-clock nanoseconds (see exec::TrialSummary).
const char* latency_unit(exec::Backend backend) {
  return backend == exec::Backend::kHw ? "ns" : "steps";
}

void write_backends(support::JsonWriter& json, const CampaignSpec& spec) {
  json.array("backends");
  for (const exec::Backend b : spec.backends) json.value(exec::to_string(b));
  json.end_array();
}

/// Whether any cell has a trial counted in `count`.  The table's
/// `incomplete` column, its error columns, the csv `first_error` column
/// and the jsonl `errors` list appear only then, so output without such
/// trials keeps its bytes.
bool any_cell(const CampaignResult& result, int CellResult::*count) {
  for (const CellResult& cell : result.cells) {
    if (cell.*count > 0) return true;
  }
  return false;
}

}  // namespace

void write_latency(support::JsonWriter& json, std::string_view key,
                   const telemetry::LatencyHistogram& latency,
                   const char* unit) {
  json.object(key)
      .field("unit", unit, "count", latency.count(),
             "p50", latency.p50(), "p90", latency.p90(),
             "p99", latency.p99(), "p999", latency.p999(),
             "max", latency.max())
      .end_object();
}

void write_perf(support::JsonWriter& json, const telemetry::PerfCounts& perf) {
  json.object("perf").field("samples", perf.samples);
  for (std::size_t i = 0; i < telemetry::PerfCounts::kCounters; ++i) {
    if (!perf.valid[i]) continue;
    json.field(telemetry::PerfCounts::name(i), perf.value[i]);
  }
  json.end_object();
}

std::optional<ReportFormat> parse_format(std::string_view name) {
  if (name == "table") return ReportFormat::kTable;
  if (name == "jsonl" || name == "json") return ReportFormat::kJsonl;
  if (name == "csv") return ReportFormat::kCsv;
  return std::nullopt;
}

bool extended_schema(const CampaignSpec& spec) {
  for (const exec::Backend backend : spec.backends) {
    if (backend != exec::Backend::kSim) return true;
  }
  for (const algo::AdversaryId adversary : spec.adversaries) {
    if (algo::info(adversary).crashes) return true;
  }
  return false;
}

bool rmr_schema(const CampaignSpec& spec) {
  for (const rmr::RmrModel model : spec.rmrs) {
    if (model != rmr::RmrModel::kNone) return true;
  }
  for (const algo::AdversaryId adversary : spec.adversaries) {
    if (algo::info(adversary).aborts) return true;
  }
  return false;
}

bool chaos_schema(const CampaignResult& result) {
  return !result.fault_spec.empty() || result.deadlines;
}

void report_table(const CampaignResult& result, std::FILE* out) {
  const bool extended = extended_schema(result.spec);
  const bool rmr = rmr_schema(result.spec);
  const bool chaos = chaos_schema(result);
  const bool incomplete = any_cell(result, &CellResult::incomplete_runs);
  const bool errors = any_cell(result, &CellResult::error_runs);
  // One table per (backend, adversary) group actually present in the
  // cells, in first-appearance order -- the reporter never re-derives
  // expand()'s grid rules (e.g. the hw adversary collapse), so it cannot
  // drift from them.
  std::vector<std::pair<exec::Backend, algo::AdversaryId>> groups;
  for (const CellResult& cell : result.cells) {
    const std::pair<exec::Backend, algo::AdversaryId> key = {
        cell.cell.backend, cell.cell.adversary};
    bool seen = false;
    for (const auto& group : groups) seen = seen || group == key;
    if (!seen) groups.push_back(key);
  }
  for (const auto& [backend, adversary_id] : groups) {
    const bool hw = backend == exec::Backend::kHw;
    {
      const char* adversary = algo::info(adversary_id).name;
      std::string title = result.spec.name + ": ";
      title += hw ? "hw backend, os scheduling (adversary axis ignored)"
                  : std::string(adversary) + " scheduling";
      if (extended && !hw) title += "  [sim]";
      if (result.truncated) title += "  [TRUNCATED by budget]";
      if (result.interrupted) title += "  [INTERRUPTED]";
      std::vector<std::string> columns = {
          "algorithm", "k", "n", "E[max steps]", "p50", "p95", "max",
          "E[mean steps]", "E[regs touched]", "declared regs", "viol",
          "trials"};
      if (!hw) {
        // Histogram tail percentiles; sim latency is the max step count,
        // so the unit matches the p50/p95 step columns.
        columns.insert(columns.begin() + 6, "p999");
        columns.insert(columns.begin() + 6, "p99");
      }
      if (extended) columns.push_back("crashed");
      if (chaos) {
        columns.push_back("t/o");
        columns.push_back("retried");
      }
      if (rmr) {
        // Per-trial RMR totals under the cell's charging model; "rmr/pid"
        // is the mean over trials of the worst single process.
        columns.push_back("rmr");
        columns.push_back("E[rmr total]");
        columns.push_back("E[rmr/pid]");
        columns.push_back("aborted");
      }
      if (hw) {
        columns.push_back("E[wall us]");
        // hw latency is wall-clock; tails go beside the wall-time mean.
        columns.push_back("p99 us");
        columns.push_back("p999 us");
      }
      if (incomplete) columns.push_back("incomplete");
      if (errors) {
        columns.push_back("errors");
        columns.push_back("first error");
      }
      support::Table table(title, columns);
      for (const CellResult& cell : result.cells) {
        if (cell.cell.backend != backend) continue;
        if (cell.cell.adversary != adversary_id) continue;
        if (cell.trials_run == 0) continue;
        std::vector<std::string> row = {
            algo::info(cell.cell.algorithm).name,
            support::Table::num(static_cast<std::size_t>(cell.cell.k)),
            support::Table::num(static_cast<std::size_t>(cell.cell.n)),
            support::fmt_mean_ci(cell.agg.max_steps),
            support::Table::num(cell.agg.max_steps.quantile(0.5), 1),
            support::Table::num(cell.agg.max_steps.quantile(0.95), 1),
            support::Table::num(cell.agg.max_steps.max(), 0),
            support::Table::num(cell.agg.mean_steps.mean(), 2),
            support::Table::num(cell.agg.regs_touched.mean(), 1),
            support::Table::num(cell.declared_registers),
            support::Table::num(static_cast<std::size_t>(
                cell.agg.violation_runs)),
            support::Table::num(static_cast<std::size_t>(cell.trials_run))};
        if (!hw) {
          row.insert(row.begin() + 6,
                     support::Table::num(static_cast<std::size_t>(
                         cell.agg.latency.p999())));
          row.insert(row.begin() + 6,
                     support::Table::num(static_cast<std::size_t>(
                         cell.agg.latency.p99())));
        }
        if (extended) {
          row.push_back(support::Table::num(
              static_cast<std::size_t>(cell.agg.crashed_runs)));
        }
        if (chaos) {
          row.push_back(support::Table::num(
              static_cast<std::size_t>(cell.agg.timed_out_runs)));
          row.push_back(support::Table::num(
              static_cast<std::size_t>(cell.agg.retried_runs)));
        }
        if (rmr) {
          row.push_back(rmr::to_string(cell.cell.rmr));
          row.push_back(support::Table::num(cell.agg.rmr_total.mean(), 1));
          row.push_back(support::Table::num(cell.agg.rmr_max.mean(), 1));
          row.push_back(support::Table::num(
              static_cast<std::size_t>(cell.agg.aborted_runs)));
        }
        if (hw) {
          row.push_back(
              support::Table::num(cell.agg.wall_seconds.mean() * 1e6, 1));
          row.push_back(support::Table::num(
              static_cast<double>(cell.agg.latency.p99()) / 1e3, 1));
          row.push_back(support::Table::num(
              static_cast<double>(cell.agg.latency.p999()) / 1e3, 1));
        }
        if (incomplete) {
          row.push_back(support::Table::num(
              static_cast<std::size_t>(cell.incomplete_runs)));
        }
        if (errors) {
          row.push_back(
              support::Table::num(static_cast<std::size_t>(cell.error_runs)));
          row.push_back(cell.first_errors.empty() ? "-"
                                                  : cell.first_errors.front());
        }
        table.add_row(row);
      }
      table.print(out);
    }
  }
}

void report_jsonl(const CampaignResult& result, std::FILE* out) {
  const bool extended = extended_schema(result.spec);
  const bool rmr = rmr_schema(result.spec);
  const bool chaos = chaos_schema(result);
  const std::string& name = result.spec.name;
  support::JsonWriter json;
  json.begin_object().field("type", "campaign", "name", name,
                            "seed", result.spec.seed,
                            "trials", result.spec.trials,
                            "cells", result.cells.size());
  if (extended) {
    write_backends(json, result.spec);
    json.field("spec_hash", support::hex64(spec_hash(result.spec)));
  }
  json.field("truncated", result.truncated);
  if (chaos) {
    // Planned first-attempt injections (deterministic; see executor.hpp) --
    // worker deaths are wall-clock-dependent and deliberately absent.
    json.object("faults")
        .field("plan", result.fault_spec, "stalls", result.faults.stalls,
               "no_shows", result.faults.no_shows,
               "delays", result.faults.delays)
        .end_object()
        .field("deadlines", result.deadlines);
  }
  if (result.interrupted) json.field("interrupted", true);
  json.end_object().raw("\n");
  for (const CellResult& cell : result.cells) {
    const CellSpec& c = cell.cell;
    json.begin_object().field("type", "cell", "campaign", name);
    if (extended) json.field("backend", exec::to_string(c.backend));
    if (rmr) json.field("rmr", rmr::to_string(c.rmr));
    json.field("algorithm", algo::info(c.algorithm).name,
               "adversary", algo::info(c.adversary).name,
               "n", c.n, "k", c.k, "trials", c.trials,
               "trials_run", cell.trials_run, "seed0", c.seed0,
               "declared_registers", cell.declared_registers,
               "violation_runs", cell.agg.violation_runs,
               "incomplete_runs", cell.incomplete_runs,
               "error_runs", cell.error_runs);
    if (cell.error_runs > 0) {
      // The reasons of the cell's first errored trials (at most three).
      json.array("errors");
      for (const std::string& error : cell.first_errors) json.value(error);
      json.end_array();
    }
    if (chaos) {
      json.field("timed_out_runs", cell.agg.timed_out_runs,
                 "retried_runs", cell.agg.retried_runs,
                 "retries_total", cell.agg.retries_total);
    }
    if (extended) json.field("crashed_runs", cell.agg.crashed_runs);
    write_summary(json, "max_steps", cell.agg.max_steps);
    write_summary(json, "mean_steps", cell.agg.mean_steps);
    write_summary(json, "total_steps", cell.agg.total_steps);
    write_summary(json, "regs_touched", cell.agg.regs_touched);
    if (rmr) {
      json.field("aborted_runs", cell.agg.aborted_runs);
      write_summary(json, "rmr_total", cell.agg.rmr_total);
      write_summary(json, "rmr_max", cell.agg.rmr_max);
    }
    if (extended) write_summary(json, "unfinished", cell.agg.unfinished);
    if (extended && c.backend == exec::Backend::kHw) {
      write_summary(json, "wall_seconds", cell.agg.wall_seconds);
    }
    write_latency(json, "latency", cell.agg.latency, latency_unit(c.backend));
    if (extended && cell.perf.any()) write_perf(json, cell.perf);
    json.end_object().raw("\n");
  }
  std::fputs(json.str().c_str(), out);
}

void report_csv(const CampaignResult& result, std::FILE* out,
                bool force_extended, bool force_rmr) {
  const bool extended = force_extended || extended_schema(result.spec);
  const bool rmr = force_rmr || rmr_schema(result.spec);
  const bool errors = any_cell(result, &CellResult::error_runs);
  std::fprintf(out,
               "campaign,%salgorithm,adversary,n,k,trials_run,seed0,"
               "declared_registers,max_steps_mean,max_steps_ci95,"
               "max_steps_p50,max_steps_p95,max_steps_max,mean_steps_mean,"
               "total_steps_mean,regs_touched_mean,violation_runs,"
               "incomplete_runs,error_runs,latency_unit,latency_p50,"
               "latency_p90,latency_p99,latency_p999,latency_max%s%s%s\n",
               extended ? "backend," : "",
               extended ? ",crashed_runs,unfinished_mean,wall_seconds_mean,"
                          "perf_samples,perf_cycles,perf_instructions,"
                          "perf_cache_misses,perf_dtlb_misses"
                        : "",
               // RMR columns ride at the very end so they stay additive over
               // both the historical and the extended layouts.
               rmr ? ",rmr,rmr_total_mean,rmr_total_max,rmr_max_mean,"
                     "aborted_runs"
                   : "",
               // Last of all, and only when some trial errored, so
               // error-free csv keeps its bytes.
               errors ? ",first_error" : "");
  for (const CellResult& cell : result.cells) {
    const support::Summary max_steps = support::summarize(cell.agg.max_steps);
    std::fprintf(out, "%s,", result.spec.name.c_str());
    if (extended) {
      std::fprintf(out, "%s,", exec::to_string(cell.cell.backend));
    }
    std::fprintf(out,
                 "%s,%s,%d,%d,%d,%llu,%zu,%s,%s,%s,%s,%s,%s,%s,%s,%d,%d,"
                 "%d",
                 algo::info(cell.cell.algorithm).name,
                 algo::info(cell.cell.adversary).name, cell.cell.n,
                 cell.cell.k, cell.trials_run,
                 static_cast<unsigned long long>(cell.cell.seed0),
                 cell.declared_registers, fmt_double(max_steps.mean).c_str(),
                 fmt_double(max_steps.ci95).c_str(),
                 fmt_double(max_steps.p50).c_str(),
                 fmt_double(max_steps.p95).c_str(),
                 fmt_double(max_steps.max).c_str(),
                 fmt_double(cell.agg.mean_steps.mean()).c_str(),
                 fmt_double(cell.agg.total_steps.mean()).c_str(),
                 fmt_double(cell.agg.regs_touched.mean()).c_str(),
                 cell.agg.violation_runs, cell.incomplete_runs,
                 cell.error_runs);
    std::fprintf(out, ",%s,%llu,%llu,%llu,%llu,%llu",
                 latency_unit(cell.cell.backend),
                 static_cast<unsigned long long>(cell.agg.latency.p50()),
                 static_cast<unsigned long long>(cell.agg.latency.p90()),
                 static_cast<unsigned long long>(cell.agg.latency.p99()),
                 static_cast<unsigned long long>(cell.agg.latency.p999()),
                 static_cast<unsigned long long>(cell.agg.latency.max()));
    if (extended) {
      std::fprintf(out, ",%d,%s,%s", cell.agg.crashed_runs,
                   fmt_double(cell.agg.unfinished.mean()).c_str(),
                   fmt_double(cell.agg.wall_seconds.mean()).c_str());
      // Invalid counters stay *empty*, distinguishable from measured zeros.
      std::fprintf(out, ",%llu",
                   static_cast<unsigned long long>(cell.perf.samples));
      for (std::size_t i = 0; i < telemetry::PerfCounts::kCounters; ++i) {
        if (cell.perf.valid[i]) {
          std::fprintf(out, ",%llu",
                       static_cast<unsigned long long>(cell.perf.value[i]));
        } else {
          std::fputc(',', out);
        }
      }
    }
    if (rmr) {
      std::fprintf(out, ",%s,%s,%s,%s,%d", rmr::to_string(cell.cell.rmr),
                   fmt_double(cell.agg.rmr_total.mean()).c_str(),
                   fmt_double(cell.agg.rmr_total.max()).c_str(),
                   fmt_double(cell.agg.rmr_max.mean()).c_str(),
                   cell.agg.aborted_runs);
    }
    if (errors) {
      std::fprintf(out, ",%s",
                   cell.first_errors.empty()
                       ? ""
                       : csv_field(cell.first_errors.front()).c_str());
    }
    std::fputc('\n', out);
  }
}

void report(const CampaignResult& result, ReportFormat format,
            std::FILE* out) {
  switch (format) {
    case ReportFormat::kTable:
      report_table(result, out);
      return;
    case ReportFormat::kJsonl:
      report_jsonl(result, out);
      return;
    case ReportFormat::kCsv:
      report_csv(result, out);
      return;
  }
  RTS_ASSERT_MSG(false, "unknown report format");
}

void report_bench_json(const CampaignResult& result, std::FILE* out) {
  std::uint64_t trials_run = 0;
  // Campaign-level latency beside trials_per_second: one merged histogram
  // per backend (units differ, so they must not be merged together).
  telemetry::LatencyHistogram latency[2];  // indexed by exec::Backend
  for (const CellResult& cell : result.cells) {
    trials_run += static_cast<std::uint64_t>(cell.trials_run);
    latency[static_cast<int>(cell.cell.backend)].merge(cell.agg.latency);
  }
  const double trials_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(trials_run) / result.wall_seconds
          : 0.0;
  support::JsonWriter json;
  json.begin_object()
      .field("schema", "rts-bench-1", "name", result.spec.name,
             "spec_hash", support::hex64(spec_hash(result.spec)));
  write_backends(json, result.spec);
  json.field("seed", result.spec.seed, "trials", result.spec.trials,
             "workers", result.workers_used,
             "wall_seconds", result.wall_seconds,
             "trials_per_second", trials_per_second);
  json.object("latency");
  for (const exec::Backend b : {exec::Backend::kSim, exec::Backend::kHw}) {
    const telemetry::LatencyHistogram& h = latency[static_cast<int>(b)];
    if (!h.empty()) write_latency(json, exec::to_string(b), h, latency_unit(b));
  }
  json.end_object().field("sim_steps", result.sim_steps,
                          "hw_steps", result.hw_steps,
                          "truncated", result.truncated);
  json.array("cells");
  for (const CellResult& cell : result.cells) {
    const CellSpec& c = cell.cell;
    const exec::Aggregate& agg = cell.agg;
    json.begin_object().field(
        "backend", exec::to_string(c.backend),
        "algorithm", algo::info(c.algorithm).name,
        "adversary", algo::info(c.adversary).name, "n", c.n, "k", c.k,
        "trials_run", cell.trials_run,
        "declared_registers", cell.declared_registers,
        "max_steps_mean", agg.max_steps.mean(),
        "mean_steps_mean", agg.mean_steps.mean(),
        "regs_touched_mean", agg.regs_touched.mean(),
        "wall_seconds_mean", agg.wall_seconds.mean(),
        "violation_runs", agg.violation_runs,
        "crashed_runs", agg.crashed_runs,
        "incomplete_runs", cell.incomplete_runs,
        "error_runs", cell.error_runs);
    if (rmr_schema(result.spec)) {
      json.field("rmr", rmr::to_string(c.rmr),
                 "rmr_total_mean", agg.rmr_total.mean(),
                 "rmr_max_mean", agg.rmr_max.mean(),
                 "aborted_runs", agg.aborted_runs);
    }
    write_latency(json, "latency", agg.latency, latency_unit(c.backend));
    if (cell.perf.any()) write_perf(json, cell.perf);
    json.end_object();
  }
  json.end_array().end_object().raw("\n");
  std::fputs(json.str().c_str(), out);
}

void report_trace_manifest(const CampaignResult& result, std::FILE* out,
                           const std::vector<int>* trials_recorded) {
  support::JsonWriter json;
  json.begin_object().field(
      "schema", "rts-trace-manifest-1", "campaign", result.spec.name,
      "spec_hash", support::hex64(spec_hash(result.spec)),
      "format_version", sim::kTraceFormatVersion,
      "trials", result.spec.trials, "truncated", result.truncated);
  json.array("sim_cells");
  for (const CellResult& cell : result.cells) {
    const CellSpec& c = cell.cell;
    if (c.backend != exec::Backend::kSim) continue;
    const int recorded =
        trials_recorded != nullptr
            ? (*trials_recorded)[static_cast<std::size_t>(c.index)]
            : cell.trials_run;
    json.begin_object().field(
        "cell", c.index, "file", sim::cell_trace_filename(c.index),
        "algorithm", algo::info(c.algorithm).name,
        "adversary", algo::info(c.adversary).name,
        "n", c.n, "k", c.k, "trials_recorded", recorded);
    // Additive: pre-RMR manifests carry no rmr key at all.
    if (c.rmr != rmr::RmrModel::kNone) {
      json.field("rmr", rmr::to_string(c.rmr));
    }
    json.end_object();
  }
  json.end_array().end_object().raw("\n");
  std::fputs(json.str().c_str(), out);
}

std::string render_to_string(const CampaignResult& result,
                             ReportFormat format) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* mem = open_memstream(&buffer, &size);
  RTS_ASSERT_MSG(mem != nullptr, "open_memstream failed");
  report(result, format, mem);
  std::fclose(mem);
  std::string out(buffer, size);
  std::free(buffer);
  return out;
}

}  // namespace rts::campaign
