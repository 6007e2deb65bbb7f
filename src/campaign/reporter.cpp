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

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += escaped;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

namespace {

/// RFC 4180 field: quoted (inner quotes doubled) only when it holds a comma,
/// a quote, or a line break; anything else is written as is.
std::string csv_field(std::string_view text) {
  if (text.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(text);
  }
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void print_summary_json(std::FILE* out, const char* key,
                        const support::Accumulator& acc) {
  const support::Summary s = support::summarize(acc);
  std::fprintf(out,
               "\"%s\":{\"mean\":%s,\"stddev\":%s,\"min\":%s,\"p50\":%s,"
               "\"p95\":%s,\"max\":%s,\"ci95\":%s}",
               key, fmt_double(s.mean).c_str(), fmt_double(s.stddev).c_str(),
               fmt_double(s.min).c_str(), fmt_double(s.p50).c_str(),
               fmt_double(s.p95).c_str(), fmt_double(s.max).c_str(),
               fmt_double(s.ci95).c_str());
}

/// Latency histogram unit per backend: sim cells record per-trial max step
/// counts, hw cells record wall-clock nanoseconds (see exec::TrialSummary).
const char* latency_unit(exec::Backend backend) {
  return backend == exec::Backend::kHw ? "ns" : "steps";
}

void print_latency_json(std::FILE* out, const char* key,
                        const telemetry::LatencyHistogram& h,
                        const char* unit) {
  std::fprintf(out,
               "\"%s\":{\"unit\":\"%s\",\"count\":%llu,\"p50\":%llu,"
               "\"p90\":%llu,\"p99\":%llu,\"p999\":%llu,\"max\":%llu}",
               key, unit, static_cast<unsigned long long>(h.count()),
               static_cast<unsigned long long>(h.p50()),
               static_cast<unsigned long long>(h.p90()),
               static_cast<unsigned long long>(h.p99()),
               static_cast<unsigned long long>(h.p999()),
               static_cast<unsigned long long>(h.max()));
}

/// Hardware-counter block; the caller must emit it only when perf.any() --
/// an unavailable counter is *absent*, never rendered as a zero.
void print_perf_json(std::FILE* out, const telemetry::PerfCounts& perf) {
  std::fprintf(out, "\"perf\":{\"samples\":%llu",
               static_cast<unsigned long long>(perf.samples));
  for (std::size_t i = 0; i < telemetry::PerfCounts::kCounters; ++i) {
    if (!perf.valid[i]) continue;
    std::fprintf(out, ",\"%s\":%llu", telemetry::PerfCounts::name(i),
                 static_cast<unsigned long long>(perf.value[i]));
  }
  std::fputc('}', out);
}

void print_backends_json(std::FILE* out, const CampaignSpec& spec) {
  std::fputs("\"backends\":[", out);
  for (std::size_t i = 0; i < spec.backends.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i > 0 ? "," : "",
                 exec::to_string(spec.backends[i]));
  }
  std::fputc(']', out);
}

/// Whether any cell has an errored trial; the table's error columns, the
/// csv `first_error` column and the jsonl `errors` list appear only then,
/// so error-free output keeps its bytes.
bool any_errors(const CampaignResult& result) {
  for (const CellResult& cell : result.cells) {
    if (cell.error_runs > 0) return true;
  }
  return false;
}

}  // namespace

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
  const bool errors = any_errors(result);
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
  std::fprintf(out,
               "{\"type\":\"campaign\",\"name\":\"%s\",\"seed\":%llu,"
               "\"trials\":%d,\"cells\":%zu,",
               json_escape(result.spec.name).c_str(),
               static_cast<unsigned long long>(result.spec.seed),
               result.spec.trials, result.cells.size());
  if (extended) {
    print_backends_json(out, result.spec);
    std::fprintf(out, ",\"spec_hash\":\"%016llx\",",
                 static_cast<unsigned long long>(spec_hash(result.spec)));
  }
  std::fprintf(out, "\"truncated\":%s",
               result.truncated ? "true" : "false");
  if (chaos) {
    // Planned first-attempt injections (deterministic; see executor.hpp) --
    // worker deaths are wall-clock-dependent and deliberately absent.
    std::fprintf(out,
                 ",\"faults\":{\"plan\":\"%s\",\"stalls\":%llu,"
                 "\"no_shows\":%llu,\"delays\":%llu},\"deadlines\":%s",
                 json_escape(result.fault_spec).c_str(),
                 static_cast<unsigned long long>(result.faults.stalls),
                 static_cast<unsigned long long>(result.faults.no_shows),
                 static_cast<unsigned long long>(result.faults.delays),
                 result.deadlines ? "true" : "false");
  }
  if (result.interrupted) std::fputs(",\"interrupted\":true", out);
  std::fputs("}\n", out);
  for (const CellResult& cell : result.cells) {
    std::fprintf(
        out, "{\"type\":\"cell\",\"campaign\":\"%s\",",
        json_escape(result.spec.name).c_str());
    if (extended) {
      std::fprintf(out, "\"backend\":\"%s\",",
                   exec::to_string(cell.cell.backend));
    }
    if (rmr) {
      std::fprintf(out, "\"rmr\":\"%s\",", rmr::to_string(cell.cell.rmr));
    }
    std::fprintf(
        out,
        "\"algorithm\":\"%s\","
        "\"adversary\":\"%s\",\"n\":%d,\"k\":%d,\"trials\":%d,"
        "\"trials_run\":%d,\"seed0\":%llu,\"declared_registers\":%zu,"
        "\"violation_runs\":%d,\"incomplete_runs\":%d,\"error_runs\":%d,",
        algo::info(cell.cell.algorithm).name,
        algo::info(cell.cell.adversary).name, cell.cell.n, cell.cell.k,
        cell.cell.trials, cell.trials_run,
        static_cast<unsigned long long>(cell.cell.seed0),
        cell.declared_registers, cell.agg.violation_runs,
        cell.incomplete_runs, cell.error_runs);
    if (cell.error_runs > 0) {
      // The reasons of the cell's first errored trials (at most three).
      std::fputs("\"errors\":[", out);
      for (std::size_t i = 0; i < cell.first_errors.size(); ++i) {
        std::fprintf(out, "%s\"%s\"", i > 0 ? "," : "",
                     json_escape(cell.first_errors[i]).c_str());
      }
      std::fputs("],", out);
    }
    if (chaos) {
      std::fprintf(out,
                   "\"timed_out_runs\":%d,\"retried_runs\":%d,"
                   "\"retries_total\":%llu,",
                   cell.agg.timed_out_runs, cell.agg.retried_runs,
                   static_cast<unsigned long long>(cell.agg.retries_total));
    }
    if (extended) {
      std::fprintf(out, "\"crashed_runs\":%d,", cell.agg.crashed_runs);
    }
    print_summary_json(out, "max_steps", cell.agg.max_steps);
    std::fputc(',', out);
    print_summary_json(out, "mean_steps", cell.agg.mean_steps);
    std::fputc(',', out);
    print_summary_json(out, "total_steps", cell.agg.total_steps);
    std::fputc(',', out);
    print_summary_json(out, "regs_touched", cell.agg.regs_touched);
    if (rmr) {
      std::fprintf(out, ",\"aborted_runs\":%d,", cell.agg.aborted_runs);
      print_summary_json(out, "rmr_total", cell.agg.rmr_total);
      std::fputc(',', out);
      print_summary_json(out, "rmr_max", cell.agg.rmr_max);
    }
    if (extended) {
      std::fputc(',', out);
      print_summary_json(out, "unfinished", cell.agg.unfinished);
      if (cell.cell.backend == exec::Backend::kHw) {
        std::fputc(',', out);
        print_summary_json(out, "wall_seconds", cell.agg.wall_seconds);
      }
    }
    std::fputc(',', out);
    print_latency_json(out, "latency", cell.agg.latency,
                       latency_unit(cell.cell.backend));
    if (extended && cell.perf.any()) {
      std::fputc(',', out);
      print_perf_json(out, cell.perf);
    }
    std::fprintf(out, "}\n");
  }
}

void report_csv(const CampaignResult& result, std::FILE* out,
                bool force_extended, bool force_rmr) {
  const bool extended = force_extended || extended_schema(result.spec);
  const bool rmr = force_rmr || rmr_schema(result.spec);
  const bool errors = any_errors(result);
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
  for (const CellResult& cell : result.cells) {
    trials_run += static_cast<std::uint64_t>(cell.trials_run);
  }
  const double trials_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(trials_run) / result.wall_seconds
          : 0.0;
  std::fprintf(out,
               "{\"schema\":\"rts-bench-1\",\"name\":\"%s\","
               "\"spec_hash\":\"%016llx\",",
               json_escape(result.spec.name).c_str(),
               static_cast<unsigned long long>(spec_hash(result.spec)));
  print_backends_json(out, result.spec);
  std::fprintf(out,
               ",\"seed\":%llu,\"trials\":%d,\"workers\":%d,"
               "\"wall_seconds\":%s,\"trials_per_second\":%s,",
               static_cast<unsigned long long>(result.spec.seed),
               result.spec.trials, result.workers_used,
               fmt_double(result.wall_seconds).c_str(),
               fmt_double(trials_per_second).c_str());
  {
    // Campaign-level latency beside trials_per_second: one merged histogram
    // per backend (units differ, so they must not be merged together).
    telemetry::LatencyHistogram sim_latency;
    telemetry::LatencyHistogram hw_latency;
    for (const CellResult& cell : result.cells) {
      (cell.cell.backend == exec::Backend::kHw ? hw_latency : sim_latency)
          .merge(cell.agg.latency);
    }
    std::fputs("\"latency\":{", out);
    if (!sim_latency.empty()) {
      print_latency_json(out, "sim", sim_latency,
                         latency_unit(exec::Backend::kSim));
    }
    if (!hw_latency.empty()) {
      if (!sim_latency.empty()) std::fputc(',', out);
      print_latency_json(out, "hw", hw_latency,
                         latency_unit(exec::Backend::kHw));
    }
    std::fputs("},", out);
  }
  std::fprintf(out,
               "\"sim_steps\":%llu,\"hw_steps\":%llu,"
               "\"truncated\":%s,\"cells\":[",
               static_cast<unsigned long long>(result.sim_steps),
               static_cast<unsigned long long>(result.hw_steps),
               result.truncated ? "true" : "false");
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    std::fprintf(
        out,
        "%s{\"backend\":\"%s\",\"algorithm\":\"%s\",\"adversary\":\"%s\","
        "\"n\":%d,\"k\":%d,\"trials_run\":%d,\"declared_registers\":%zu,"
        "\"max_steps_mean\":%s,\"mean_steps_mean\":%s,"
        "\"regs_touched_mean\":%s,\"wall_seconds_mean\":%s,"
        "\"violation_runs\":%d,\"crashed_runs\":%d,\"incomplete_runs\":%d,"
        "\"error_runs\":%d,",
        i > 0 ? "," : "", exec::to_string(cell.cell.backend),
        algo::info(cell.cell.algorithm).name,
        algo::info(cell.cell.adversary).name, cell.cell.n, cell.cell.k,
        cell.trials_run, cell.declared_registers,
        fmt_double(cell.agg.max_steps.mean()).c_str(),
        fmt_double(cell.agg.mean_steps.mean()).c_str(),
        fmt_double(cell.agg.regs_touched.mean()).c_str(),
        fmt_double(cell.agg.wall_seconds.mean()).c_str(),
        cell.agg.violation_runs, cell.agg.crashed_runs,
        cell.incomplete_runs, cell.error_runs);
    if (rmr_schema(result.spec)) {
      std::fprintf(out,
                   "\"rmr\":\"%s\",\"rmr_total_mean\":%s,"
                   "\"rmr_max_mean\":%s,\"aborted_runs\":%d,",
                   rmr::to_string(cell.cell.rmr),
                   fmt_double(cell.agg.rmr_total.mean()).c_str(),
                   fmt_double(cell.agg.rmr_max.mean()).c_str(),
                   cell.agg.aborted_runs);
    }
    print_latency_json(out, "latency", cell.agg.latency,
                       latency_unit(cell.cell.backend));
    if (cell.perf.any()) {
      std::fputc(',', out);
      print_perf_json(out, cell.perf);
    }
    std::fputc('}', out);
  }
  std::fprintf(out, "]}\n");
}

void report_trace_manifest(const CampaignResult& result, std::FILE* out,
                           const std::vector<int>* trials_recorded) {
  std::fprintf(out,
               "{\"schema\":\"rts-trace-manifest-1\",\"campaign\":\"%s\","
               "\"spec_hash\":\"%016llx\",\"format_version\":%llu,"
               "\"trials\":%d,\"truncated\":%s,\"sim_cells\":[",
               json_escape(result.spec.name).c_str(),
               static_cast<unsigned long long>(spec_hash(result.spec)),
               static_cast<unsigned long long>(sim::kTraceFormatVersion),
               result.spec.trials, result.truncated ? "true" : "false");
  bool first = true;
  for (const CellResult& cell : result.cells) {
    if (cell.cell.backend != exec::Backend::kSim) continue;
    const int recorded =
        trials_recorded != nullptr
            ? (*trials_recorded)[static_cast<std::size_t>(cell.cell.index)]
            : cell.trials_run;
    std::fprintf(
        out,
        "%s{\"cell\":%d,\"file\":\"%s\",\"algorithm\":\"%s\","
        "\"adversary\":\"%s\",\"n\":%d,\"k\":%d,\"trials_recorded\":%d",
        first ? "" : ",", cell.cell.index,
        sim::cell_trace_filename(cell.cell.index).c_str(),
        algo::info(cell.cell.algorithm).name,
        algo::info(cell.cell.adversary).name, cell.cell.n, cell.cell.k,
        recorded);
    // Additive: pre-RMR manifests carry no rmr key at all.
    if (cell.cell.rmr != rmr::RmrModel::kNone) {
      std::fprintf(out, ",\"rmr\":\"%s\"", rmr::to_string(cell.cell.rmr));
    }
    std::fputc('}', out);
    first = false;
  }
  std::fprintf(out, "]}\n");
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
