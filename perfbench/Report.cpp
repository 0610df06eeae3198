#include "Report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "support/Stats.h"
#include "workload/CorpusManifest.h"

namespace perfbench {

const std::vector<LayerDef>& layerTable() {
  static const std::vector<LayerDef> table = [] {
    std::vector<LayerDef> t = {
      {"analysis.self_ms", "ms", "lower"},
      {"ddg.self_ms", "ms", "lower"},
      {"sched.ideal_ms", "ms", "lower"},
      {"sched.resched_ms", "ms", "lower"},
      {"sched.placements", "count", "lower"},
      {"sched.ii_escalations", "count", "lower"},
      {"partition.rcg_ms", "ms", "lower"},
      {"partition.assign_ms", "ms", "lower"},
      {"partition.copy_ms", "ms", "lower"},
      {"partition.copies", "count", "lower"},
      {"partition.fallbacks", "count", "lower"},
      {"regalloc.self_ms", "ms", "lower"},
      {"regalloc.rewrite_ms", "ms", "lower"},
      {"regalloc.spills", "count", "lower"},
      {"sched.emit_ms", "ms", "lower"},
      {"sched.emitted_ops", "count", "lower"},
      {"verify.self_ms", "ms", "lower"},
      {"verify.ops", "count", "lower"},
      {"certify.self_ms", "ms", "lower"},
      {"certify.ssa_ms", "ms", "lower"},
      {"certify.values", "count", "lower"},
      {"vliwsim.self_ms", "ms", "lower"},
      {"vliwsim.cycles", "cycles", "lower"},
      {"trace.checking_share_pct", "%", "lower"},
      {"workload.materialize_ms", "ms", "lower"},
      {"pipeline.reduce_ms", "ms", "lower"},
      {"pipeline.compile_ms", "ms", "lower"},
      {"pipeline.replay_mismatches", "count", "lower"},
      {"trace.overhead_pct", "%", "lower"},
      {"outcome.failed_rows", "count", "lower"},
      {"outcome.fail_ratio", "ratio", "lower"},
      {"protocol.encode_ms", "ms", "lower"},
      {"protocol.decode_ms", "ms", "lower"},
      {"protocol.hash_ms", "ms", "lower"},
      {"protocol.bytes", "bytes", "lower"},
      {"service.transport_ms", "ms", "lower"},
      {"service.queue_wait_ms", "ms", "lower"},
      {"service.hit_service_ms", "ms", "lower"},
      {"service.miss_service_ms", "ms", "lower"},
      {"service.hit_p50_ms", "ms", "lower"},
      {"service.hit_p99_ms", "ms", "lower"},
      {"service.miss_p50_ms", "ms", "lower"},
      {"service.miss_p95_ms", "ms", "lower"},
      {"service.cache_hits", "count", "higher"},
      {"service.cache_misses", "count", "lower"},
      {"service.cache_insertions", "count", "lower"},
      {"service.cache_evictions", "count", "lower"},
      {"service.hit_ratio", "ratio", "higher"},
      {"service.queue_max_depth", "count", "lower"},
      {"service.rejected_overload", "count", "lower"},
      {"service.journal_append_failures", "count", "lower"},
      {"service.journal_bytes", "bytes", "lower"},
      {"shard.attempts", "count", "lower"},
      {"shard.deaths", "count", "lower"},
      {"shard.retries", "count", "lower"},
      {"shard.splits", "count", "lower"},
      {"shard.poisoned_rows", "count", "lower"},
      {"shard.stragglers_cancelled", "count", "lower"},
      {"shard.duplicate_rows", "count", "lower"},
      {"shard.row_compiles", "count", "lower"},
      {"shard.useful_ratio", "ratio", "higher"},
      {"shard.row_p50_ms", "ms", "lower"},
      {"shard.row_p99_ms", "ms", "lower"},
      {"shard.busy_ratio", "ratio", "higher"},
      {"shard.journal_bytes", "bytes", "lower"},
    };
    for (int s = 0; s < rapt::CorpusManifest::numStrata(); ++s) {
      const std::string base = std::string("workload.") + rapt::CorpusManifest::stratum(s).name;
      t.push_back({base + ".p50_ms", "ms", "lower"});
      t.push_back({base + ".p90_ms", "ms", "lower"});
    }
    return t;
  }();
  return table;
}

double guardedPercentileMs(std::vector<std::int64_t> ns, double p,
                           const std::string& metric) {
  if (ns.empty()) throw BenchError(metric + ": no samples");
  std::sort(ns.begin(), ns.end());
  const std::int64_t value = rapt::percentile(ns, p);
  const auto beyond = ns.end() - std::upper_bound(ns.begin(), ns.end(), value);
  const auto n = static_cast<std::int64_t>(ns.size());
  if (p > 50.0 && beyond < 10) {
    throw BenchError(metric + ": refusing p" + std::to_string(static_cast<int>(p)) +
                     " with only " + std::to_string(beyond) + " of " +
                     std::to_string(n) + " samples beyond it (need 10)");
  }
  return static_cast<double>(value) / 1e6;
}

void Report::metric(std::string name, std::string unit, std::string better,
                    double value, std::int64_t samples) {
  metrics_.push_back(Metric{std::move(name), std::move(unit), std::move(better), value,
                            samples});
}

void Report::layer(const std::string& name, double value, std::int64_t samples) {
  for (const LayerDef& d : layerTable()) {
    if (d.name == name) {
      metric(name, d.unit, d.better, value, samples);
      return;
    }
  }
  throw BenchError("undeclared per-layer metric " + name);
}

void Report::fillMissingLayers() {
  std::set<std::string> have;
  for (const Metric& m : metrics_) have.insert(m.name);
  for (const LayerDef& d : layerTable())
    if (have.count(d.name) == 0) metric(d.name, d.unit, d.better, 0.0);
}

void Report::check(std::string name, bool ok, std::string detail) {
  checks_.push_back(Check{std::move(name), ok, std::move(detail)});
}

bool Report::correct() const {
  return !checks_.empty() &&
         std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
}

std::string Report::render() const {
  std::string out;
  char buf[512];
  for (const Metric& m : metrics_) {
    std::string samples = m.samples >= 0 ? "n=" + std::to_string(m.samples) : "";
    std::snprintf(buf, sizeof buf, "  %-36s %16.6f %-8s %-7s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.better.c_str(), samples.c_str());
    out += buf;
  }
  for (const Check& c : checks_) {
    std::snprintf(buf, sizeof buf, "  check %-30s %s %s\n", c.name.c_str(),
                  c.ok ? "ok  " : "FAIL", c.detail.c_str());
    out += buf;
  }
  return out;
}

rapt::Json Report::json(const std::string& workload, std::uint64_t seed,
                        bool traced) const {
  rapt::Json doc = rapt::Json::object();
  doc["workload"] = workload;
  doc["seed"] = static_cast<std::int64_t>(seed);
  doc["trace"] = traced;
  doc["correct"] = correct();
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  rapt::Json ms = rapt::Json::object();
  for (const Metric& m : metrics_) {
    rapt::Json j = rapt::Json::object();
    j["value"] = m.value;
    j["unit"] = m.unit;
    j["better"] = m.better;
    if (m.samples >= 0) j["samples"] = m.samples;
    ms[m.name] = std::move(j);
  }
  doc["metrics"] = std::move(ms);
  rapt::Json cs = rapt::Json::array();
  for (const Check& c : checks_) {
    rapt::Json j = rapt::Json::object();
    j["name"] = c.name;
    j["ok"] = c.ok;
    j["detail"] = c.detail;
    cs.push(std::move(j));
  }
  doc["checks"] = std::move(cs);
  doc["detail"] = extra;
  return doc;
}

double peakRssMb(bool children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kib = static_cast<double>(self.ru_maxrss);
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib += static_cast<double>(kids.ru_maxrss);
  }
  return kib / 1024.0;
}

}  // namespace perfbench
