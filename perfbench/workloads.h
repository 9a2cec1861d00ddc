// The benchmark's four workloads. Each takes the run options, generates its
// inputs from the seed before any timing starts, measures for the given
// wall time, checks its outputs, and returns the metrics to print:
// the end-to-end set with tracing off, the per-layer set with tracing on.
// README.md gives each workload's purpose and each metric's definition.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the traced run writes its span log into.
  std::string span_dir = ".";
};

// Set-up is repeated this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 7;

// The set-up repeats of one run, spread over its timed region. The first
// runs on construction, before timing starts, and also warms the process.
// The others run between timed calls, one each time another
// 1/kSetupRepeats of the timed region has passed, so the median rests
// neither on the process's slow first second nor on one phase of a noisy
// host. `once` performs one set-up and returns its time in seconds.
class SetupRepeats {
 public:
  explicit SetupRepeats(std::function<double()> once);
  // Starts spreading the remaining repeats over the next `seconds`.
  void spread_over(double seconds);
  // Runs the next repeat if one is due; call between timed calls.
  void between();
  // Runs the repeats the timed region did not reach; returns the median.
  double median();

 private:
  std::function<double()> once_;
  std::vector<double> times_;
  int64_t start_ns_ = 0;
  int64_t step_ns_ = 0;
};

Report run_catalog_zipf(const Options& options);
Report run_admission_deep(const Options& options);
Report run_live_sessions(const Options& options);
Report run_diurnal_adaptive(const Options& options);

// The end-to-end metrics every workload reports with tracing off, in the
// order BENCHMARK.json lists them (main adds peak_rss_mb).
struct EndToEnd {
  double setup_s = 0.0;
  double video_slots_per_s = 0.0;
  double requests_per_s = 0.0;
  double avg_streams = 0.0;
  double peak_streams = 0.0;
  double provisioned_streams = 0.0;
};
void add_end_to_end(const EndToEnd& e, Report* report);

// Formats a human-readable "name value unit (n=...)" note line.
std::string format_note(const std::string& name, double value,
                        const std::string& unit, size_t samples = 0);

// Formats "name p50 .. p99 .. [p99.9 ..] unit (n=...)": the median, the
// p99, and the highest percentile with ten samples beyond it when that is
// above p99.
std::string format_summary(const std::string& name, const Summary& s,
                           const std::string& unit);

// Mean of the per-window peaks of `series` over consecutive windows of
// `window` entries; a trailing partial window is dropped (the engine's
// provisioned-bandwidth rule).
double mean_window_peak(const std::vector<int>& series, size_t window);

// Adds each layer's self time (<layer>.self_s) from the traced run's spans
// and writes the span log to <span_dir>/spans-<workload>-<seed>.jsonl.
void finish_spans(const SpanRecorder& spans, const Options& options,
                  const char* workload, Report* report);

// Slots per provisioning window: about one hour at the paper's 72.7 s slot.
inline constexpr size_t kProvisionWindow = 50;

}  // namespace perfbench
