// The benchmark's four workloads (README.md here explains each choice).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "Replay.h"
#include "Report.h"
#include "Spans.h"
#include "support/Rng.h"

namespace perfbench {

/// Command-line inputs. `seed` drives every random choice of a run; the
/// other knobs fix the generated inputs and default to the recorded values
/// (Expected.h) that the correctness gates compare against.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::uint64_t manifestSeed = 0x52415054;  ///< CorpusManifest default
  int cheapPrefix = 2400;      ///< manifest-cheap rows
  int shardPrefix = 400;       ///< shard-full rows (m118 is row 118)
  int streamRequests = 5000;   ///< service-mixed requests per pass
  int streamNewKeys = 1000;    ///< of which first requests of a key (misses)
  std::string runDir;          ///< scratch files of this run (socket, journals)
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 41;

void runPaperFull(const Args& args, Report& report, SpanRecorder& spans);
void runManifestCheap(const Args& args, Report& report, SpanRecorder& spans);
void runServiceMixed(const Args& args, Report& report, SpanRecorder& spans);
void runShardFull(const Args& args, Report& report, SpanRecorder& spans);

// ---- shared helpers --------------------------------------------------------

/// The wall times of a run's set-ups; setup_s is their median.
class SetupTimes {
 public:
  /// Runs and times one set-up. The last set-up's state is what the next
  /// pass measures.
  void time(const std::function<void()>& setup);
  [[nodiscard]] double medianSeconds() const;
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(seconds_.size());
  }

 private:
  std::vector<double> seconds_;
};

/// How many whole passes over its inputs a run makes: --seconds divided by
/// the workload's nominal pass time on the reference host, rounded, at least
/// one; one in a traced run. Every run of a workload thus measures the same
/// work, and about --seconds of it.
[[nodiscard]] int passCount(const Args& args, double nominalPassSeconds);

/// How many set-ups run before pass `pass` of `passes`: an even share of
/// kSetupRepeats, at least one. Spreading the set-ups over the run makes
/// setup_s see the same host conditions as the passes.
[[nodiscard]] int setupsBeforePass(int pass, int passes);

[[nodiscard]] inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Self time of spans named `name`, in ms (0 when there are none).
[[nodiscard]] double selfMs(const std::map<std::string, std::int64_t>& self, const char* name);

/// num / den, or 0 when den is 0.
[[nodiscard]] inline double ratio(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Worker threads of the compile workloads: 4, or fewer on a smaller host.
[[nodiscard]] int jobWorkers();

/// Calls `job(k, worker)` for every k of `order`, handed out in that order
/// to jobWorkers() threads; `worker` names the thread (0-based).
void runJobs(const std::vector<int>& order, const std::function<void(int k, int worker)>& job);

/// Fisher-Yates order of [0, n) from `seed`.
[[nodiscard]] std::vector<int> seededOrder(int n, std::uint64_t seed);

/// The per-layer metrics of a traced compile pass, from span self times and
/// the layer counters. Metrics of layers the workload never reaches are 0.
void reportCompileLayers(Report& report, const SpanRecorder& spans,
                         const LayerCounters& counters);

}  // namespace perfbench
