// Metric collection and the guarded percentile of perfbench.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/Json.h"

namespace perfbench {

/// A configuration the benchmark refuses to measure (too few samples behind
/// a percentile, a missing input file, a bad flag). Ends the run with a
/// non-zero exit and no result line.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Nearest-rank percentile `p` of `ns`, in milliseconds. Throws BenchError
/// when fewer than 10 samples lie strictly above the value: such a
/// percentile is noise, and the benchmark will not print it.
[[nodiscard]] double guardedPercentileMs(std::vector<std::int64_t> ns, double p,
                                         const std::string& metric);

struct Metric {
  std::string name;
  std::string unit;
  std::string better;     ///< "lower" | "higher"
  double value = 0.0;
  std::int64_t samples = -1;  ///< samples behind a percentile or median, else -1
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run reports: end-to-end metrics (untraced run) or
/// per-layer metrics (traced run), the correctness checks, and the
/// operation counts of the result line.
class Report {
 public:
  void metric(std::string name, std::string unit, std::string better, double value,
              std::int64_t samples = -1);
  /// A per-layer metric; its unit and direction come from layerTable().
  void layer(const std::string& name, double value, std::int64_t samples = -1);
  /// Adds every per-layer metric not yet reported as 0: a layer the
  /// workload never reaches did no work.
  void fillMissingLayers();
  void check(std::string name, bool ok, std::string detail = "");

  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< operations with an unexpected outcome
  rapt::Json extra = rapt::Json::object();  ///< report-only detail

  [[nodiscard]] bool correct() const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<Check>& checks() const { return checks_; }

  /// Human-readable table of metrics and checks.
  [[nodiscard]] std::string render() const;
  /// The machine-readable document (the binary's last stdout line).
  [[nodiscard]] rapt::Json json(const std::string& workload, std::uint64_t seed,
                                bool traced) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
};

/// One per-layer metric of the traced runs (BENCHMARK.json's per_layer).
struct LayerDef {
  std::string name;
  std::string unit;
  std::string better;
};

/// Every per-layer metric a traced run prints. The stratum percentiles are
/// added from CorpusManifest's stratification table.
[[nodiscard]] const std::vector<LayerDef>& layerTable();

/// Peak resident set of this process in MiB; with `children`, plus the
/// largest peak among waited-for child processes.
[[nodiscard]] double peakRssMb(bool children);

}  // namespace perfbench
