#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "exec/workspace.hpp"
#include "sim/adversaries.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace rts::sim {

std::string format_record(const Kernel& kernel, const OpRecord& record) {
  char buffer[256];
  const auto& slot = kernel.memory().slot(record.reg);
  if (record.kind == OpKind::kWrite) {
    std::snprintf(buffer, sizeof buffer, "#%-6llu p%-3d WRITE r%-4u %-18.*s := %llu",
                  static_cast<unsigned long long>(record.step), record.pid,
                  record.reg, static_cast<int>(slot.name.size()), slot.name.data(),
                  static_cast<unsigned long long>(record.value));
  } else if (record.prev_writer >= 0) {
    std::snprintf(buffer, sizeof buffer,
                  "#%-6llu p%-3d READ  r%-4u %-18.*s -> %llu (saw p%d)",
                  static_cast<unsigned long long>(record.step), record.pid,
                  record.reg, static_cast<int>(slot.name.size()), slot.name.data(),
                  static_cast<unsigned long long>(record.value),
                  record.prev_writer);
  } else {
    std::snprintf(buffer, sizeof buffer,
                  "#%-6llu p%-3d READ  r%-4u %-18.*s -> %llu",
                  static_cast<unsigned long long>(record.step), record.pid,
                  record.reg, static_cast<int>(slot.name.size()), slot.name.data(),
                  static_cast<unsigned long long>(record.value));
  }
  return buffer;
}

std::string format_trace(const Kernel& kernel, std::size_t max_lines) {
  std::string out;
  const auto& log = kernel.event_log();
  const std::size_t shown = std::min(max_lines, log.size());
  for (std::size_t i = 0; i < shown; ++i) {
    out += format_record(kernel, log[i]);
    out += '\n';
  }
  if (shown < log.size()) {
    out += "... (" + std::to_string(log.size() - shown) + " more)\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Schedule record/replay.

namespace {

constexpr char kMagic[8] = {'R', 'T', 'S', 'T', 'R', 'A', 'C', 'E'};

// LEB128 varints: the natural fit for action streams whose pids are small.
void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void put_string(std::string& out, std::string_view text) {
  put_varint(out, text.size());
  out.append(text);
}

class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  bool varint(std::uint64_t* out) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return false;
      const auto byte = static_cast<unsigned char>(bytes_[pos_++]);
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = value;
        return true;
      }
    }
    return false;  // over-long encoding
  }

  bool string(std::string* out) {
    std::uint64_t size = 0;
    if (!varint(&size) || size > remaining()) return false;
    out->assign(bytes_.substr(pos_, size));
    pos_ += size;
    return true;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string("trace: ") + what;
  return false;
}

}  // namespace

std::uint64_t outcome_digest(const LeRunResult& result) {
  std::uint64_t hash = support::kFnv1aOffset;
  for (int pid = 0; pid < result.k; ++pid) {
    support::fnv1a_u64(hash, static_cast<std::uint64_t>(
                        result.outcomes[static_cast<std::size_t>(pid)]));
    support::fnv1a_u64(hash, result.steps[static_cast<std::size_t>(pid)]);
  }
  return hash;
}

std::int32_t winner_of(const LeRunResult& result) {
  for (int pid = 0; pid < result.k; ++pid) {
    if (result.outcomes[static_cast<std::size_t>(pid)] == Outcome::kWin) {
      return pid;
    }
  }
  return -1;
}

void fill_trace_result(TrialTrace& trace, const LeRunResult& result) {
  trace.total_steps = result.total_steps;
  trace.max_steps = result.max_steps;
  trace.regs_touched = result.regs_touched;
  trace.winner = winner_of(result);
  trace.completed = result.completed;
  trace.crash_free = result.crash_free;
  trace.outcome_digest = outcome_digest(result);
  trace.rmr_total = result.rmr_total;
}

std::string replay_mismatch(const TrialTrace& trace,
                            const LeRunResult& result) {
  const auto diff = [](const char* field, std::uint64_t want,
                       std::uint64_t got) {
    return std::string(field) + ": recorded " + std::to_string(want) +
           ", replayed " + std::to_string(got);
  };
  if (trace.total_steps != result.total_steps) {
    return diff("total_steps", trace.total_steps, result.total_steps);
  }
  if (trace.max_steps != result.max_steps) {
    return diff("max_steps", trace.max_steps, result.max_steps);
  }
  if (trace.regs_touched != result.regs_touched) {
    return diff("regs_touched", trace.regs_touched, result.regs_touched);
  }
  const std::int32_t winner = winner_of(result);
  if (trace.winner != winner) {
    return "winner: recorded pid " + std::to_string(trace.winner) +
           ", replayed pid " + std::to_string(winner);
  }
  if (trace.completed != result.completed) {
    return diff("completed", trace.completed ? 1 : 0, result.completed ? 1 : 0);
  }
  if (trace.crash_free != result.crash_free) {
    return diff("crash_free", trace.crash_free ? 1 : 0,
                result.crash_free ? 1 : 0);
  }
  if (trace.outcome_digest != outcome_digest(result)) {
    return diff("outcome_digest", trace.outcome_digest,
                outcome_digest(result));
  }
  if (trace.rmr_total != result.rmr_total) {
    return diff("rmr_total", trace.rmr_total, result.rmr_total);
  }
  return {};
}

Kernel::Options cell_kernel_options(std::uint64_t step_limit,
                                    rmr::RmrModel rmr) {
  Kernel::Options options;
  if (step_limit > 0) options.step_limit = step_limit;
  options.rmr_model = rmr;
  return options;
}

LeRunResult replay_actions(const LeBuilder& builder, int n, int k,
                           const std::vector<Action>& actions,
                           std::uint64_t trial_seed,
                           const Kernel::Options& options,
                           exec::TrialWorkspace* workspace,
                           std::uint64_t key) {
  ReplayAdversary adversary(&actions);
  if (workspace == nullptr) {
    return run_le_once(builder, n, k, adversary, trial_seed, options);
  }
  return workspace->run_le_once(key, builder, n, k, adversary, trial_seed,
                                options);
}

LeRunResult replay_cell_trial(const LeBuilder& builder, const CellTrace& cell,
                              const TrialTrace& trial,
                              exec::TrialWorkspace* workspace) {
  return replay_actions(builder, static_cast<int>(cell.n),
                        static_cast<int>(cell.k), trial.actions,
                        trial.trial_seed,
                        cell_kernel_options(cell.step_limit, cell.rmr),
                        workspace, cell.cell_index);
}

LeRunResult record_trial_trace(const LeBuilder& builder, int n, int k,
                               const AdversaryFactory& factory, int trial,
                               std::uint64_t seed0,
                               const Kernel::Options& kernel_options,
                               TrialTrace* out,
                               exec::TrialWorkspace* workspace,
                               std::uint64_t key) {
  RTS_ASSERT(out != nullptr);
  out->trial_seed = trial_seed(seed0, trial);
  out->adversary_seed = adversary_seed(out->trial_seed);
  const std::unique_ptr<Adversary> inner = factory(out->adversary_seed);
  RecordingAdversary recorder(*inner, &out->actions);
  const LeRunResult result =
      workspace == nullptr
          ? run_le_once(builder, n, k, recorder, out->trial_seed,
                        kernel_options)
          : workspace->run_le_once(key, builder, n, k, recorder,
                                   out->trial_seed, kernel_options);
  fill_trace_result(*out, result);
  return result;
}

std::string encode_cell_trace(const CellTrace& cell) {
  // Emit the oldest format that can represent the cell: a cell with no
  // abort actions and no RMR model encodes to byte-identical v1, so the
  // pre-v2 corpus regenerates unchanged.
  bool needs_v2 = cell.rmr != rmr::RmrModel::kNone;
  for (const TrialTrace& trial : cell.trials) {
    if (needs_v2) break;
    for (const Action& action : trial.actions) {
      if (action.kind == Action::Kind::kAbort) {
        needs_v2 = true;
        break;
      }
    }
  }
  const std::uint64_t version = needs_v2 ? 2 : 1;

  std::string out(kMagic, sizeof kMagic);
  put_varint(out, version);
  put_string(out, cell.campaign);
  put_string(out, cell.algorithm);
  put_string(out, cell.adversary);
  put_varint(out, cell.cell_index);
  put_varint(out, cell.n);
  put_varint(out, cell.k);
  put_varint(out, cell.seed0);
  put_varint(out, cell.step_limit);
  if (version >= 2) put_varint(out, static_cast<std::uint64_t>(cell.rmr));
  put_varint(out, cell.trials.size());
  for (const TrialTrace& trial : cell.trials) {
    put_varint(out, trial.trial_seed);
    put_varint(out, trial.adversary_seed);
    put_varint(out, trial.actions.size());
    for (const Action& action : trial.actions) {
      if (version >= 2) {
        // Two kind bits below the pid: 0 = step, 1 = crash, 2 = abort.
        put_varint(out, (static_cast<std::uint64_t>(action.pid) << 2) |
                            static_cast<std::uint64_t>(action.kind));
      } else {
        // v1: low bit is the crash flag; the pid rides above it.
        const std::uint64_t crash_bit =
            action.kind == Action::Kind::kCrash ? 1u : 0u;
        put_varint(out,
                   (static_cast<std::uint64_t>(action.pid) << 1) | crash_bit);
      }
    }
    put_varint(out, trial.total_steps);
    put_varint(out, trial.max_steps);
    put_varint(out, trial.regs_touched);
    put_varint(out, static_cast<std::uint64_t>(trial.winner + 1));
    put_varint(out, trial.completed ? 1 : 0);
    put_varint(out, trial.crash_free ? 1 : 0);
    put_varint(out, trial.outcome_digest);
    if (version >= 2) put_varint(out, trial.rmr_total);
  }
  // Trailing checksum over everything before it, stored as 8 raw bytes.
  std::uint64_t checksum = support::kFnv1aOffset;
  support::fnv1a_bytes(checksum, out);
  for (int byte = 0; byte < 8; ++byte) {
    out.push_back(static_cast<char>((checksum >> (8 * byte)) & 0xffu));
  }
  return out;
}

bool decode_cell_trace(std::string_view bytes, CellTrace* out,
                       std::string* error) {
  if (bytes.size() < sizeof kMagic + 8) return fail(error, "truncated file");
  if (bytes.substr(0, sizeof kMagic) != std::string_view(kMagic, sizeof kMagic)) {
    return fail(error, "bad magic (not an .rtst trace)");
  }
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  std::uint64_t stored = 0;
  for (int byte = 7; byte >= 0; --byte) {
    stored = (stored << 8) |
             static_cast<unsigned char>(bytes[bytes.size() - 8 +
                                              static_cast<std::size_t>(byte)]);
  }
  std::uint64_t checksum = support::kFnv1aOffset;
  support::fnv1a_bytes(checksum, payload);
  if (checksum != stored) return fail(error, "checksum mismatch (corrupt file)");

  Cursor cursor(payload.substr(sizeof kMagic));
  std::uint64_t version = 0;
  if (!cursor.varint(&version)) return fail(error, "truncated header");
  if (version < 1 || version > kTraceFormatVersion) {
    return fail(error, "unsupported format version");
  }
  CellTrace cell;
  std::uint64_t value = 0;
  if (!cursor.string(&cell.campaign) || !cursor.string(&cell.algorithm) ||
      !cursor.string(&cell.adversary)) {
    return fail(error, "truncated header strings");
  }
  if (!cursor.varint(&value)) return fail(error, "truncated header");
  cell.cell_index = static_cast<std::uint32_t>(value);
  if (!cursor.varint(&value)) return fail(error, "truncated header");
  cell.n = static_cast<std::uint32_t>(value);
  if (!cursor.varint(&value)) return fail(error, "truncated header");
  cell.k = static_cast<std::uint32_t>(value);
  if (!cursor.varint(&cell.seed0)) return fail(error, "truncated header");
  if (!cursor.varint(&cell.step_limit)) return fail(error, "truncated header");
  if (version >= 2) {
    if (!cursor.varint(&value)) return fail(error, "truncated header");
    if (value > static_cast<std::uint64_t>(rmr::RmrModel::kDSM)) {
      return fail(error, "unknown rmr model");
    }
    cell.rmr = static_cast<rmr::RmrModel>(value);
  }
  std::uint64_t trial_count = 0;
  if (!cursor.varint(&trial_count)) return fail(error, "truncated header");
  if (trial_count > cursor.remaining()) {
    return fail(error, "implausible trial count");  // each trial is >= 1 byte
  }
  cell.trials.reserve(trial_count);
  for (std::uint64_t t = 0; t < trial_count; ++t) {
    TrialTrace trial;
    if (!cursor.varint(&trial.trial_seed) ||
        !cursor.varint(&trial.adversary_seed)) {
      return fail(error, "truncated trial");
    }
    std::uint64_t action_count = 0;
    if (!cursor.varint(&action_count)) return fail(error, "truncated trial");
    if (action_count > cursor.remaining()) {
      return fail(error, "implausible action count");
    }
    trial.actions.reserve(action_count);
    for (std::uint64_t a = 0; a < action_count; ++a) {
      if (!cursor.varint(&value)) return fail(error, "truncated actions");
      if (version >= 2) {
        const int pid = static_cast<int>(value >> 2);
        switch (value & 3u) {
          case 0: trial.actions.push_back(Action::step(pid)); break;
          case 1: trial.actions.push_back(Action::crash(pid)); break;
          case 2: trial.actions.push_back(Action::abort_req(pid)); break;
          default: return fail(error, "unknown action kind");
        }
      } else {
        const int pid = static_cast<int>(value >> 1);
        trial.actions.push_back((value & 1u) != 0 ? Action::crash(pid)
                                                  : Action::step(pid));
      }
    }
    if (!cursor.varint(&trial.total_steps) ||
        !cursor.varint(&trial.max_steps) ||
        !cursor.varint(&trial.regs_touched)) {
      return fail(error, "truncated trial digest");
    }
    if (!cursor.varint(&value)) return fail(error, "truncated trial digest");
    trial.winner = static_cast<std::int32_t>(value) - 1;
    if (!cursor.varint(&value)) return fail(error, "truncated trial digest");
    trial.completed = value != 0;
    if (!cursor.varint(&value)) return fail(error, "truncated trial digest");
    trial.crash_free = value != 0;
    if (!cursor.varint(&trial.outcome_digest)) {
      return fail(error, "truncated trial digest");
    }
    if (version >= 2 && !cursor.varint(&trial.rmr_total)) {
      return fail(error, "truncated trial digest");
    }
    cell.trials.push_back(std::move(trial));
  }
  if (cursor.remaining() != 0) return fail(error, "trailing garbage");
  *out = std::move(cell);
  return true;
}

bool write_cell_trace_file(const std::string& path, const CellTrace& cell,
                           std::string* error) {
  const std::string bytes = encode_cell_trace(cell);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return fail(error, "cannot open file for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const int close_rc = std::fclose(file);
  if (written != bytes.size() || close_rc != 0) {
    return fail(error, "short write");
  }
  return true;
}

bool read_cell_trace_file(const std::string& path, CellTrace* out,
                          std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return fail(error, ("cannot open '" + path + "'").c_str());
  }
  std::string bytes;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    bytes.append(buffer, got);
  }
  const bool read_ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!read_ok) return fail(error, ("error reading '" + path + "'").c_str());
  return decode_cell_trace(bytes, out, error);
}

std::string cell_trace_filename(int cell_index) {
  char name[32];
  std::snprintf(name, sizeof name, "cell-%04d.rtst", cell_index);
  return name;
}

}  // namespace rts::sim
