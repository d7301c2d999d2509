#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds; every benchmark timing uses it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The files the untimed prep step writes for one world seed: a binary
/// snapshot (served by `culinary_serve --snapshot-in`) and the CSV export of
/// the same world (ingested by the Fig 4 workload).
struct WorldFiles {
  std::string dir;
  /// World seed as given on the command line; 0 = the datagen spec default.
  uint64_t world_seed = 0;

  std::string snapshot() const { return dir + "/world.snap"; }
  std::string registry_prefix() const { return dir + "/world"; }
  std::string recipes_csv() const { return dir + "/world_recipes.csv"; }
};

/// The seed the paper-scale world is really generated from (the spec
/// default when `world_seed` is 0); the snapshot digest is keyed by it.
uint64_t EffectiveWorldSeed(uint64_t world_seed);

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor ran other guests on our vCPUs ("steal").
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time stolen between two readings (0 when unknown). Printed
/// with every result: on a shared VM it explains most run-to-run spread.
double StealFrac(const CpuTicks& before, const CpuTicks& after);

/// Tail percentiles need at least this many samples beyond them.
inline constexpr size_t kMinTailSupport = 10;

/// A nearest-rank percentile with the evidence behind it.
struct Quantile {
  double value = 0.0;
  size_t count = 0;   ///< samples the percentile was taken over
  size_t beyond = 0;  ///< samples strictly after its rank
};

/// Nearest-rank percentile `q` in (0, 1] of `samples` (sorted in place).
Quantile NearestRank(std::vector<double>& samples, double q);

/// Median (nearest-rank p50) of a copy of `values`; 0 when empty.
double Median(std::vector<double> values);

/// One run's metrics and the JSON result line that ends its output. Every
/// other stdout line starts with "# ".
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// Adds percentile `q` of `samples` under `name`, after printing it with
  /// its sample count and the number of samples beyond it. A tail (q > 0.5)
  /// with fewer than `kMinTailSupport` samples beyond it is refused: the
  /// metric is left out and false is returned.
  bool AddQuantile(const std::string& name, std::vector<double>& samples,
                   double q, const std::string& unit);

  /// Prints percentile `q` of `samples` with its sample count and the
  /// number of samples beyond it, without adding it to the result.
  static Quantile NoteQuantile(const std::string& name,
                               std::vector<double>& samples, double q,
                               const std::string& unit);

  /// Prints "# <text>" on stdout.
  static void Note(const std::string& text);

  bool Has(const std::string& name) const;

  /// The final JSON object: correct / attempted / failed / metrics. Values
  /// are printed with all their digits.
  std::string ResultLine(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

/// Formats `value` as a JSON number with 17 significant digits.
std::string JsonNumber(double value);

/// In-memory span log for the traced run. Spans are appended as they close
/// and written to a file only at exit, so recording costs two clock reads
/// and one vector append. Spans of one request line share `id`.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint32_t id;
    int32_t parent;  ///< index of the enclosing span, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  /// An enabled log reserves room for a whole traced run up front, so no
  /// span pays for a reallocation.
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(size_t{1} << 17);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int32_t Begin(const char* name, uint32_t id, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, id, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Closes span `index`; returns its duration in ns (0 when disabled).
  int64_t End(int32_t index) {
    if (index < 0) return 0;
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    return span.end_ns - span.start_ns;
  }

  /// Writes one JSON object per line: name, id, parent, start_ns, end_ns.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
