#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <set>
#include <thread>

#include "Workloads.h"
#include "support/Stats.h"

namespace perfbench {

void SetupTimes::time(const std::function<void()>& setup) {
  const std::int64_t t0 = nowNs();
  setup();
  seconds_.push_back(static_cast<double>(nowNs() - t0) / 1e9);
}

double SetupTimes::medianSeconds() const { return rapt::median(seconds_); }

double selfMs(const std::map<std::string, std::int64_t>& self, const char* name) {
  auto it = self.find(name);
  return it == self.end() ? 0.0 : ms(it->second);
}

int passCount(const Args& args, double nominalPassSeconds) {
  if (args.trace) return 1;
  return std::max(1, static_cast<int>(std::lround(args.seconds / nominalPassSeconds)));
}

int setupsBeforePass(int pass, int passes) {
  return std::max(1, kSetupRepeats * (pass + 1) / passes - kSetupRepeats * pass / passes);
}

int jobWorkers() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
}

void runJobs(const std::vector<int>& order, const std::function<void(int k, int worker)>& job) {
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(jobWorkers()));
  auto work = [&](int worker) {
    try {
      for (std::size_t i = next++; i < order.size(); i = next++) job(order[i], worker);
    } catch (...) {
      errors[static_cast<std::size_t>(worker)] = std::current_exception();
      next = order.size();  // the others stop after their current job
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < jobWorkers(); ++w) threads.emplace_back(work, w);
  work(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

std::vector<int> seededOrder(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  rapt::SplitMix64 rng(seed);
  for (int i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.range(0, i))]);
  return order;
}

void reportCompileLayers(Report& report, const SpanRecorder& spans,
                         const LayerCounters& c) {
  const std::map<std::string, std::int64_t> self = spans.selfNs();
  auto ms = [&](const char* span) { return selfMs(self, span); };
  auto count = [](std::int64_t v) { return static_cast<double>(v); };
  report.layer("analysis.self_ms", ms("analysis"));
  report.layer("ddg.self_ms", ms("ddg"));
  report.layer("sched.ideal_ms", ms("sched.ideal"));
  report.layer("sched.resched_ms", ms("sched.resched"));
  report.layer("sched.placements", count(c.placements));
  report.layer("sched.ii_escalations", count(c.iiEscalations));
  report.layer("partition.rcg_ms", ms("partition.rcg"));
  report.layer("partition.assign_ms", ms("partition.assign"));
  report.layer("partition.copy_ms", ms("partition.copy"));
  report.layer("partition.copies", count(c.copies));
  report.layer("partition.fallbacks", count(c.fallbacks));
  report.layer("regalloc.self_ms", ms("regalloc"));
  report.layer("regalloc.rewrite_ms", ms("regalloc.rewrite"));
  report.layer("regalloc.spills", count(c.spills));
  report.layer("sched.emit_ms", ms("sched.emit"));
  report.layer("sched.emitted_ops", count(c.emittedOps));
  report.layer("verify.self_ms", ms("verify"));
  report.layer("verify.ops", count(c.verifiedOps));
  report.layer("certify.self_ms", ms("certify"));
  report.layer("certify.ssa_ms", ms("certify.ssa"));
  report.layer("certify.values", count(c.certifiedValues));
  report.layer("vliwsim.self_ms", ms("vliwsim"));
  report.layer("vliwsim.cycles", count(c.simulatedCycles));

  // Share of the summed layer self time spent in the checking and emission
  // machinery (the ROADMAP's ~95% claim), and every layer's share.
  static const std::set<std::string> checking = {
      "certify", "certify.ssa", "vliwsim", "verify", "regalloc", "regalloc.rewrite",
      "sched.emit"};
  double total = 0.0, checked = 0.0;
  for (const auto& [name, ns] : self) {
    if (name == "pipeline.loop" || name == "pipeline.reduce") continue;
    total += static_cast<double>(ns);
    if (checking.count(name) != 0) checked += static_cast<double>(ns);
  }
  rapt::Json shares = rapt::Json::object();
  for (const auto& [name, ns] : self) {
    if (name == "pipeline.loop" || name == "pipeline.reduce" || total <= 0.0) continue;
    shares[name] = 100.0 * static_cast<double>(ns) / total;
  }
  report.extra["layerSharePct"] = std::move(shares);
  report.layer("trace.checking_share_pct", total > 0.0 ? 100.0 * checked / total : 0.0);
}

}  // namespace perfbench
