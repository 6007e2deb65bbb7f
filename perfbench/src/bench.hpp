// Shared plumbing of the repository benchmark driver (rts_perfbench): wall
// and CPU clocks, the in-memory span recorder behind the traced run, and a
// minimal JSON object writer for the result documents perfbench/run.py
// reads back.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a library layer; the library itself carries no tracing.  A
// null recorder disables tracing, which is how the timed (untraced) runs
// call the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// Median of the samples (mean of the two middle values for an even
/// count); 0 for no samples.
double median(std::vector<double> samples);

/// Exact nearest-rank percentile over the samples, q in [0, 1].
double percentile(std::vector<double> samples, double q);

/// This process's peak resident set (VmHWM), in MiB; 0 when unreadable.
double peak_rss_mb();

/// User + system CPU seconds consumed by every thread of this process.
double process_cpu_seconds();

/// Spans kept in memory and written out once, as JSON lines, when the run
/// ends.  Single-threaded: spans nest by call order on the calling thread,
/// and a span's parent is the innermost span open when it began.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  SpanRecorder();

  std::uint32_t begin(std::string name);
  void end(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per span; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a no-op when the recorder is null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

/// JSON object builder: values are rendered as they are added, so the
/// document is one string with no intermediate tree.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::uint64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& str(const std::string& key, const std::string& value);
  /// `json` must already be a rendered JSON value.
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& nums(const std::string& key, const std::vector<double>& values);
  std::string render() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);
  std::string body_;
};

std::string json_array(const std::vector<std::string>& rendered);
std::string json_number(double value);
std::string json_string(const std::string& value);

/// Writes `text` plus a newline to `path`; false on failure.
bool write_file(const std::string& path, const std::string& text);

}  // namespace pb
