#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

bool percentile_supported(size_t n, double p, size_t min_beyond) {
  // In hundredths, with slack for the binary rounding of 100 - p.
  return static_cast<double>(n) * (100.0 - p) >=
         100.0 * static_cast<double>(min_beyond) - 1e-6;
}

double highest_supported_percentile(size_t n, size_t min_beyond) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (percentile_supported(n, p, min_beyond)) return p;
  }
  return 0.0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = percentile_sorted(samples, 50.0);
  s.max = samples.back();
  s.p99_supported = percentile_supported(s.count, 99.0);
  s.p99 = percentile_sorted(samples, 99.0);
  s.tail_pct = highest_supported_percentile(s.count);
  s.tail = s.tail_pct > 0.0 ? percentile_sorted(samples, s.tail_pct) : s.max;
  return s;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50.0);
}

int64_t DueSchedule::slot_due(uint64_t slot) const {
  return start_ns + static_cast<int64_t>(slot) * slot_ns;
}

int64_t DueSchedule::op_due(uint64_t slot, size_t index, size_t count) const {
  const int64_t offset = slot_ns * static_cast<int64_t>(index + 1) /
                         static_cast<int64_t>(count + 1);
  return slot_due(slot) + offset;
}

int64_t LagAccount::record(int64_t due_ns, int64_t start_ns, int64_t end_ns) {
  const int64_t lag = std::max<int64_t>(0, start_ns - due_ns);
  if (lag > tolerance_) ++late_;
  lag_us_.push_back(static_cast<double>(lag) / 1e3);
  return end_ns - due_ns;
}

double LagAccount::late_share() const {
  return lag_us_.empty() ? 0.0
                         : static_cast<double>(late_) /
                               static_cast<double>(lag_us_.size());
}

std::pair<int32_t, uint32_t> SpanRecorder::enclosing(
    uint32_t root_weight) const {
  if (open_.empty()) return {-1, root_weight};
  return {open_.back(), spans_[static_cast<size_t>(open_.back())].weight};
}

int32_t SpanRecorder::begin(const char* name, const char* layer, uint64_t id,
                            uint32_t weight) {
  if (!enabled_) return -1;
  const auto [parent, w] = enclosing(weight);
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, layer, now_ns(), 0, parent, id, w});
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

void SpanRecorder::add(const char* name, const char* layer, uint64_t id,
                       int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  const auto [parent, w] = enclosing(1);
  spans_.push_back(Span{name, layer, start_ns, end_ns, parent, id, w});
}

std::vector<std::pair<std::string, double>> layer_self_seconds(
    const std::vector<Span>& spans) {
  // Children on one thread never overlap each other, so a parent's
  // covered time is the plain sum of its direct children's durations.
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first == spans[i].layer;
    });
    if (it == out.end()) {
      out.emplace_back(spans[i].layer, 0.0);
      it = out.end() - 1;
    }
    it->second += static_cast<double>(self[i]) * spans[i].weight / 1e9;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id
        << ",\"weight\":" << s.weight << "}\n";
  }
  return static_cast<bool>(out);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Report::note(const std::string& line) { notes.push_back(line); }

std::string result_json(const Report& report, std::string* error) {
  std::set<std::string> seen;
  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      *error = "invalid or repeated metric name '" + m.name + "'";
      return "";
    }
    if (!std::isfinite(m.value)) {
      *error = "metric '" + m.name + "' is not finite";
      return "";
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  return "{\"correct\": " + std::string(report.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
