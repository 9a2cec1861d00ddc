// Measurement helpers shared by the benchmark workloads: percentile
// summaries with their sample counts, open-loop due-time/lag accounting,
// the benchmark's own span recorder, and the JSON result line.
//
// Everything here works on plain numbers (nanosecond timestamps passed in
// by the caller), so measure_test.cc can pin the arithmetic without a
// clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Host monotonic time in nanoseconds (steady_clock).
int64_t now_ns();

// FNV-1a over 64-bit words: the digests the determinism checks compare.
inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;
inline void fnv_mix(uint64_t v, uint64_t* h) {
  *h ^= v;
  *h *= 1099511628211ull;
}

// --- percentiles ---------------------------------------------------------

// Linear-interpolated percentile (0 <= p <= 100) of an ascending-sorted,
// non-empty sample.
double percentile_sorted(const std::vector<double>& sorted, double p);

// True when `n` samples leave at least `min_beyond` samples strictly above
// the p-th percentile's rank, i.e. n * (1 - p/100) >= min_beyond. A
// percentile without ten samples beyond it is a maximum in disguise.
bool percentile_supported(size_t n, double p, size_t min_beyond = 10);

// The highest of 99.9 / 99 / 90 / 50 that `n` samples support, or 0 when
// even the median is unsupported.
double highest_supported_percentile(size_t n, size_t min_beyond = 10);

struct Summary {
  size_t count = 0;
  double median = 0.0;
  double p99 = 0.0;            // valid only when p99_supported
  bool p99_supported = false;  // count leaves >= 10 samples beyond p99
  double tail_pct = 0.0;       // highest supported percentile
  double tail = 0.0;           // value at tail_pct
  double max = 0.0;
};

// Sorts a copy of `samples` and summarizes it. Empty input yields a
// zero Summary with count 0.
Summary summarize(std::vector<double> samples);

// Median of a small set of repeated measurements (e.g. set-up times).
double median_of(std::vector<double> values);

// --- open-loop accounting ------------------------------------------------

// Due instants of an open-loop schedule in compressed real time: slot k
// starts at start_ns + k * slot_ns, and the i-th of m operations in a slot
// is due at an even fraction of the slot, (i + 1) / (m + 1).
struct DueSchedule {
  int64_t start_ns = 0;
  int64_t slot_ns = 0;

  int64_t slot_due(uint64_t slot) const;
  int64_t op_due(uint64_t slot, size_t index, size_t count) const;
};

// Per-operation lateness bookkeeping for an open-loop generator. An
// operation due at `due` that the generator started at `start` and the
// system finished at `end` has latency end - due (what a caller sees: a
// stall delays every operation queued behind it) and generator lag
// start - due. An operation counts as late when its lag exceeds the
// tolerance.
class LagAccount {
 public:
  explicit LagAccount(int64_t late_tolerance_ns)
      : tolerance_(late_tolerance_ns) {}

  // Records one operation; returns its latency from the due time in ns.
  int64_t record(int64_t due_ns, int64_t start_ns, int64_t end_ns);

  size_t count() const { return lag_us_.size(); }
  size_t late() const { return late_; }
  double late_share() const;
  // Generator lag samples in microseconds (negative lag clamps to 0: a
  // generator never starts an operation early, but a coarse clock read
  // could make it look so).
  const std::vector<double>& lag_us() const { return lag_us_; }

 private:
  int64_t tolerance_;
  size_t late_ = 0;
  std::vector<double> lag_us_;
};

// --- spans ---------------------------------------------------------------

// One timed call into a layer, recorded by the benchmark around the call.
struct Span {
  const char* name = "";   // call name, e.g. "on_request"
  const char* layer = "";  // layer the callee belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;     // index of the enclosing span, -1 at the root
  uint64_t id = 0;         // request or slot id shared by related spans
  // How many like spans this one stands for: the sampling stride of a
  // sampled slot and of every span inside it, 1 when nothing was skipped.
  uint32_t weight = 1;
};

// In-memory span log for the traced run. Spans nest on one thread: begin()
// pushes, end() pops, and the parent is whatever was open. A span opened
// inside another inherits its weight; a root takes the weight given.
// Disabled recorders cost one branch per call and record nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Opens a span and returns its index (-1 when disabled). `weight` is
  // used only for a root span.
  int32_t begin(const char* name, const char* layer, uint64_t id,
                uint32_t weight = 1);
  void end(int32_t index);
  // Records an already-measured interval as a child of the open span.
  void add(const char* name, const char* layer, uint64_t id, int64_t start_ns,
           int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per span (name, layer, start/end ns, parent,
  // id, weight). Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  // Parent index and weight for a span opened now.
  std::pair<int32_t, uint32_t> enclosing(uint32_t root_weight) const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Self time per layer in seconds: each span's duration minus the time its
// direct children cover, times its weight, summed by layer, layers in
// first-seen order. Children must not overlap each other (spans recorded
// on one thread).
std::vector<std::pair<std::string, double>> layer_self_seconds(
    const std::vector<Span>& spans);

// Scoped span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, const char* layer,
             uint64_t id)
      : rec_(rec), index_(rec->begin(name, layer, id)) {}
  ~ScopedSpan() { rec_->end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

// --- the result line -----------------------------------------------------

// Valid metric names: a letter or digit first, then at most
// 63 more of [A-Za-z0-9_.-].
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Outcome of one workload run. `failed` counts operations or correctness
// checks that went wrong; any failure makes the run incorrect.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;       // what the result line carries
  std::vector<std::string> notes;    // human-readable lines printed first

  // Counts one failed check and prints `what` to stderr.
  void fail(const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  // A human-readable line (printed before the result line).
  void note(const std::string& line);
  bool correct() const { return failed == 0; }
};

// Formats the result line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Values print with 17 significant
// digits. Returns an empty string (and the reason in *error) when a name
// is invalid, repeated, or a value is not finite.
std::string result_json(const Report& report, std::string* error);

// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench
