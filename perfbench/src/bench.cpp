#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t SpanRecorder::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::end(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":%s,\"id\":%u,\"parent\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 json_string(span.name).c_str(), span.id, span.parent,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) out += ",";
    out += rendered[i];
  }
  return out + "]";
}

void JsonObject::key(const std::string& name) {
  if (!body_.empty()) body_ += ",";
  body_ += json_string(name) + ":";
}

JsonObject& JsonObject::num(const std::string& name, double value) {
  key(name);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(const std::string& name, const std::string& value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::raw(const std::string& name, const std::string& json) {
  key(name);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::nums(const std::string& name,
                             const std::vector<double>& values) {
  std::vector<std::string> rendered;
  rendered.reserve(values.size());
  for (const double v : values) rendered.push_back(json_number(v));
  return raw(name, json_array(rendered));
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool wrote = std::fputs(text.c_str(), out) >= 0 &&
                     std::fputc('\n', out) != EOF;
  return std::fclose(out) == 0 && wrote;
}

}  // namespace pb
