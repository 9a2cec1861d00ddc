// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-dir <dir>]
//
// Prints human-readable lines, then, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer metrics the workload exercises (run.py adds the rest of the
// set BENCHMARK.json declares, as 0). Exits 1 when any correctness check
// failed, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "workloads.h"

namespace perfbench {

SetupRepeats::SetupRepeats(std::function<double()> once)
    : once_(std::move(once)) {
  times_.push_back(once_());
}

void SetupRepeats::spread_over(double seconds) {
  start_ns_ = now_ns();
  step_ns_ = static_cast<int64_t>(seconds * 1e9) / kSetupRepeats;
}

void SetupRepeats::between() {
  const auto done = static_cast<int64_t>(times_.size());
  if (done < kSetupRepeats && now_ns() >= start_ns_ + done * step_ns_) {
    times_.push_back(once_());
  }
}

double SetupRepeats::median() {
  while (times_.size() < static_cast<size_t>(kSetupRepeats)) {
    times_.push_back(once_());
  }
  return median_of(times_);
}

void add_end_to_end(const EndToEnd& e, Report* report) {
  report->metric("setup_s", e.setup_s, "s");
  report->metric("video_slots_per_s", e.video_slots_per_s, "1/s");
  report->metric("requests_per_s", e.requests_per_s, "1/s");
  report->metric("avg_streams", e.avg_streams, "streams");
  report->metric("peak_streams", e.peak_streams, "streams");
  report->metric("provisioned_streams", e.provisioned_streams, "streams");
}

std::string format_note(const std::string& name, double value,
                        const std::string& unit, size_t samples) {
  char buf[256];
  if (samples > 0) {
    std::snprintf(buf, sizeof(buf), "%-40s %14.6g %-7s (n=%zu)", name.c_str(),
                  value, unit.c_str(), samples);
  } else {
    std::snprintf(buf, sizeof(buf), "%-40s %14.6g %s", name.c_str(), value,
                  unit.c_str());
  }
  return buf;
}

std::string format_summary(const std::string& name, const Summary& s,
                           const std::string& unit) {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf), "%-24s p50 %.6g  p99 %.6g",
                        name.c_str(), s.median, s.p99);
  if (s.tail_pct > 99.0) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                       "  p%g %.6g", s.tail_pct, s.tail);
  }
  std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), " %s (n=%zu)",
                unit.c_str(), s.count);
  return buf;
}

double mean_window_peak(const std::vector<int>& series, size_t window) {
  double sum = 0.0;
  size_t windows = 0;
  for (size_t begin = 0; begin + window <= series.size(); begin += window) {
    sum += *std::max_element(series.begin() + static_cast<ptrdiff_t>(begin),
                             series.begin() +
                                 static_cast<ptrdiff_t>(begin + window));
    ++windows;
  }
  return windows > 0 ? sum / static_cast<double>(windows) : 0.0;
}

void finish_spans(const SpanRecorder& spans, const Options& options,
                  const char* workload, Report* report) {
  for (const auto& [layer, seconds] : layer_self_seconds(spans.spans())) {
    report->metric(layer + ".self_s", seconds, "s");
  }
  const std::string path = options.span_dir + "/spans-" + workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  if (spans.write_jsonl(path)) {
    report->note("spans written to " + path);
  } else {
    report->fail("cannot write span log " + path);
  }
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<catalog_zipf|admission_deep|live_sessions|diurnal_adaptive> "
               "--seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--span-dir") {
      options.span_dir = value;
    } else {
      return usage();
    }
  }

  Report report;
  if (workload == "catalog_zipf") {
    report = run_catalog_zipf(options);
  } else if (workload == "admission_deep") {
    report = run_admission_deep(options);
  } else if (workload == "live_sessions") {
    report = run_live_sessions(options);
  } else if (workload == "diurnal_adaptive") {
    report = run_diurnal_adaptive(options);
  } else {
    return usage();
  }

  if (!options.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("%s\n", format_note(m.name, m.value, m.unit).c_str());
  }
  if (report.attempted > 0) {
    std::printf("%s\n",
                format_note("failed_share",
                            static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted),
                            "ratio")
                    .c_str());
  }
  std::string error;
  const std::string line = result_json(report, &error);
  if (line.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return report.correct() ? 0 : 1;
}
