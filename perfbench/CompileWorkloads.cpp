// paper-full and manifest-cheap: compileLoop over a fixed input set, timed
// per call by the benchmark. The seed only orders the calls.
#include <fstream>
#include <sstream>

#include "BenchCommon.h"
#include "Expected.h"
#include "Workloads.h"
#include "pipeline/WorkerProtocol.h"
#include "shard/ShardProtocol.h"
#include "support/Stats.h"
#include "workload/CorpusManifest.h"

namespace perfbench {

using namespace rapt;

namespace {

// Nominal pass times on the reference host (see passCount).
constexpr double kPaperFullPassSeconds = 3.0;
constexpr double kManifestCheapPassSeconds = 2.2;

/// One compile of the input set: which loop on which machine.
struct Job {
  const Loop* loop;
  int machine;  ///< index into the machine list
};

struct CompileSet {
  std::vector<Loop> loops;
  std::vector<MachineDesc> machines;
  std::vector<Job> jobs;  ///< in corpus order: machine-major, then loop
  PipelineOptions options;
};

/// What one pass over a CompileSet measured.
struct PassResult {
  std::vector<LoopResult> rows;           ///< by job index
  std::vector<std::int64_t> compileNs;    ///< by job index
  std::int64_t wallNs = 0;
};

PassResult compilePass(const CompileSet& set, const std::vector<int>& order) {
  PassResult p;
  p.rows.resize(set.jobs.size());
  p.compileNs.resize(set.jobs.size());
  const std::int64_t start = nowNs();
  runJobs(order, [&](int k, int) {
    const Job& j = set.jobs[static_cast<std::size_t>(k)];
    const std::int64_t t0 = nowNs();
    p.rows[static_cast<std::size_t>(k)] =
        compileLoop(*j.loop, set.machines[static_cast<std::size_t>(j.machine)], set.options);
    p.compileNs[static_cast<std::size_t>(k)] = nowNs() - t0;
  });
  p.wallNs = nowNs() - start;
  return p;
}

/// The traced pass: compileLoop (untraced, for the reference result and
/// time) then the replay of the same call, per job.
struct TracedPass {
  std::vector<LoopResult> rows;
  std::vector<std::int64_t> compileNs;
  std::int64_t compileTotalNs = 0;
  std::int64_t replayTotalNs = 0;
  int mismatches = 0;
  std::string firstMismatch;
  LayerCounters counters;
};

TracedPass tracedPass(const CompileSet& set, const std::vector<int>& order,
                      SpanRecorder& spans) {
  TracedPass p;
  p.rows.resize(set.jobs.size());
  p.compileNs.resize(set.jobs.size());
  std::vector<std::int64_t> replayNs(set.jobs.size());
  std::vector<char> mismatch(set.jobs.size(), 0);
  std::vector<SpanRecorder> recorders(static_cast<std::size_t>(jobWorkers()),
                                      SpanRecorder(true));
  std::vector<LayerCounters> counters(recorders.size());
  runJobs(order, [&](int k, int worker) {
    const auto i = static_cast<std::size_t>(k);
    const Job& j = set.jobs[i];
    const MachineDesc& m = set.machines[static_cast<std::size_t>(j.machine)];
    const std::int64_t t0 = nowNs();
    LoopResult ref = compileLoop(*j.loop, m, set.options);
    const std::int64_t t1 = nowNs();
    const LoopResult replayed =
        replayCompile(*j.loop, m, set.options, recorders[static_cast<std::size_t>(worker)], k,
                      counters[static_cast<std::size_t>(worker)]);
    replayNs[i] = nowNs() - t1;
    p.compileNs[i] = t1 - t0;
    mismatch[i] = semanticHash(ref) != semanticHash(replayed) ? 1 : 0;
    p.rows[i] = std::move(ref);
  });
  for (const SpanRecorder& r : recorders) spans.absorb(r);
  for (const LayerCounters& c : counters) p.counters += c;
  for (std::size_t i = 0; i < set.jobs.size(); ++i) {
    p.compileTotalNs += p.compileNs[i];
    p.replayTotalNs += replayNs[i];
    if (mismatch[i] != 0 && p.mismatches++ == 0) {
      const Job& j = set.jobs[i];
      p.firstMismatch = j.loop->name + " on " +
                        set.machines[static_cast<std::size_t>(j.machine)].name;
    }
  }
  return p;
}

/// Reduces the rows of each machine through SuiteReducer, in corpus order.
std::vector<SuiteResult> reduceByMachine(const CompileSet& set,
                                         const std::vector<LoopResult>& rows) {
  std::vector<SuiteReducer> reducers;
  for (const MachineDesc& m : set.machines) reducers.emplace_back(m);
  for (std::size_t k = 0; k < set.jobs.size(); ++k)
    reducers[static_cast<std::size_t>(set.jobs[k].machine)].add(rows[k]);
  std::vector<SuiteResult> out;
  for (SuiteReducer& r : reducers) out.push_back(r.finish());
  return out;
}

/// Failure rows by class against the expected list; returns the number of
/// unexpected outcomes (a failure not listed, or a listed row that passed).
/// With no list (inputs nobody recorded) the classes are only reported.
int checkFailures(const std::vector<LoopResult>& rows,
                  const std::vector<ExpectedFailure>* expected, Report& report) {
  std::map<std::string, std::string> want;
  if (expected != nullptr)
    for (const ExpectedFailure& e : *expected) want[e.loop] = e.failureClass;
  std::map<std::string, int> byClass;
  int unexpected = 0;
  std::string detail;
  for (const LoopResult& r : rows) {
    auto it = want.find(r.loopName);
    if (r.ok) {
      if (it != want.end()) {
        ++unexpected;
        detail += r.loopName + " now compiles; ";
      }
      continue;
    }
    const std::string cls = failureClassName(r.failureClass);
    ++byClass[cls];
    if (it == want.end() || it->second != cls) {
      ++unexpected;
      detail += r.loopName + " failed as " + cls + ": " + r.error + "; ";
    }
  }
  std::string classes;
  for (const auto& [cls, count] : byClass) classes += cls + "=" + std::to_string(count) + " ";
  Json j = Json::object();
  for (const auto& [cls, count] : byClass) j[cls] = count;
  report.extra["failuresByClass"] = std::move(j);
  if (expected == nullptr) return 0;
  report.check("failure-rows-as-expected", unexpected == 0,
               unexpected == 0 ? classes : detail);
  return unexpected;
}

/// End-to-end metrics shared by the two compile workloads.
void reportCompileEndToEnd(Report& report, const SetupTimes& setup,
                           const std::vector<std::int64_t>& lat, std::int64_t rows,
                           std::int64_t wallNs, const std::vector<LoopResult>& firstPass) {
  report.metric("setup_s", "s", "lower", setup.medianSeconds(), setup.count());
  const auto n = static_cast<std::int64_t>(lat.size());
  report.metric("latency_p50_ms", "ms", "lower",
                guardedPercentileMs(lat, 50, "latency_p50_ms"), n);
  report.metric("latency_p99_ms", "ms", "lower",
                guardedPercentileMs(lat, 99, "latency_p99_ms"), n);
  report.metric("throughput_per_s", "1/s", "higher", 1e9 * ratio(rows, wallNs), rows);
  report.metric("peak_rss_mb", "MiB", "lower", peakRssMb(false));
  std::vector<double> normalized;
  std::int64_t copies = 0, simCycles = 0;
  for (const LoopResult& r : firstPass) {
    if (!r.ok) continue;
    normalized.push_back(r.normalizedSize());
    copies += r.bodyCopies;
    simCycles += r.simulatedCycles;
  }
  report.metric("kernel_size_hmean", "%", "lower", harmonicMean(normalized),
                static_cast<std::int64_t>(normalized.size()));
  report.metric("body_copies", "count", "lower", static_cast<double>(copies));
  report.extra["sim_cycles"] = simCycles;
}

/// Runs a compile workload: untraced passes, or one traced pass. `setUp`
/// builds `set`; it runs before every pass (setupsBeforePass).
/// `verify` gets the first pass's rows and adds the workload's own checks.
void runCompileWorkload(
    const Args& args, Report& report, SpanRecorder& spans, const CompileSet& set,
    double nominalPassSeconds, const std::function<void()>& setUp,
    const std::function<std::string(int job)>& stratumOf,
    const std::function<void(const std::vector<LoopResult>&,
                             const std::vector<SuiteResult>&)>& verify) {
  SetupTimes setup;
  const int passes = passCount(args, nominalPassSeconds);
  auto setUpBefore = [&](int pass) {
    for (int i = setupsBeforePass(pass, passes); i > 0; --i) setup.time(setUp);
  };
  setUpBefore(0);
  const std::vector<int> order = seededOrder(static_cast<int>(set.jobs.size()), args.seed);
  report.attempted = static_cast<std::int64_t>(set.jobs.size());

  if (!args.trace) {
    std::vector<std::int64_t> lat;
    std::vector<LoopResult> first;
    std::uint64_t firstHash = 0;
    bool repeatable = true;
    std::int64_t wallNs = 0, rows = 0;
    for (int pass = 0; pass < passes; ++pass) {
      if (pass > 0) setUpBefore(pass);
      PassResult p = compilePass(set, order);
      lat.insert(lat.end(), p.compileNs.begin(), p.compileNs.end());
      wallNs += p.wallNs;
      rows += static_cast<std::int64_t>(p.rows.size());
      const std::uint64_t h = semanticRowsHash(p.rows);
      if (pass == 0) {
        first = std::move(p.rows);
        firstHash = h;
      } else {
        repeatable = repeatable && h == firstHash;
      }
    }
    report.check("passes-bit-identical", repeatable);
    const std::vector<SuiteResult> suites = reduceByMachine(set, first);
    verify(first, suites);
    reportCompileEndToEnd(report, setup, lat, rows, wallNs, first);
    return;
  }

  if (const std::string unsupported = replayUnsupported(set.options); !unsupported.empty())
    throw BenchError("the replay does not cover PipelineOptions::" + unsupported);
  TracedPass p = tracedPass(set, order, spans);
  const std::int64_t reduceStart = nowNs();
  const int reduceSpan = spans.begin("pipeline.reduce", -1);
  const std::vector<SuiteResult> suites = reduceByMachine(set, p.rows);
  spans.end(reduceSpan);
  const std::int64_t reduceNs = nowNs() - reduceStart;
  verify(p.rows, suites);
  report.check("replay-matches-compileLoop", p.mismatches == 0,
               p.mismatches == 0 ? "" : "first: " + p.firstMismatch);

  reportCompileLayers(report, spans, p.counters);
  report.layer("pipeline.compile_ms", ms(p.compileTotalNs));
  report.layer("pipeline.reduce_ms", ms(reduceNs));
  report.layer("pipeline.replay_mismatches", p.mismatches);
  report.layer("trace.overhead_pct",
               100.0 * ratio(p.replayTotalNs - p.compileTotalNs, p.compileTotalNs));
  report.layer("workload.materialize_ms", setup.medianSeconds() * 1e3);

  if (stratumOf) {
    std::map<std::string, std::vector<std::int64_t>> byStratum;
    for (std::size_t k = 0; k < set.jobs.size(); ++k)
      byStratum[stratumOf(static_cast<int>(k))].push_back(p.compileNs[k]);
    for (const auto& [name, ns] : byStratum) {
      const auto n = static_cast<std::int64_t>(ns.size());
      const std::string base = "workload." + name;
      report.layer(base + ".p50_ms", guardedPercentileMs(ns, 50, base + ".p50_ms"), n);
      report.layer(base + ".p90_ms", guardedPercentileMs(ns, 90, base + ".p90_ms"), n);
    }
  }
  std::int64_t failedRows = 0;
  for (const LoopResult& r : p.rows) failedRows += r.ok ? 0 : 1;
  report.layer("outcome.failed_rows", static_cast<double>(failedRows));
  report.layer("outcome.fail_ratio",
               ratio(failedRows, static_cast<std::int64_t>(p.rows.size())));
}

/// Reads bench/baselines/BENCH_table2_degradation.json: label -> aggregates.
std::map<std::string, std::string> table2Baseline() {
  const char* path = "bench/baselines/BENCH_table2_degradation.json";
  std::ifstream in(path);
  if (!in) throw BenchError(std::string("cannot read ") + path);
  std::stringstream text;
  text << in.rdbuf();
  Json doc;
  std::string error;
  if (!Json::parse(text.str(), doc, error)) throw BenchError(std::string(path) + ": " + error);
  std::map<std::string, std::string> out;
  const Json* cases = doc.find("cases");
  if (cases == nullptr) throw BenchError(std::string(path) + ": no cases");
  for (std::size_t i = 0; i < cases->size(); ++i) {
    const Json& c = cases->at(i);
    out[c.find("label")->asString()] = c.find("aggregates")->dumpCompact();
  }
  return out;
}

}  // namespace

void runPaperFull(const Args& args, Report& report, SpanRecorder& spans) {
  CompileSet set;
  auto setUp = [&] {
    set = CompileSet{};
    set.loops = bench::corpus();
    for (const bench::MachineCase& mc : bench::kMachineCases)
      set.machines.push_back(MachineDesc::paper16(mc.clusters, mc.model));
    for (int m = 0; m < static_cast<int>(set.machines.size()); ++m)
      for (const Loop& l : set.loops) set.jobs.push_back(Job{&l, m});
    set.options.threads = 1;
  };
  const std::map<std::string, std::string> baseline = table2Baseline();

  runCompileWorkload(args, report, spans, set, kPaperFullPassSeconds, setUp, nullptr,
                     [&](const std::vector<LoopResult>& rows,
                         const std::vector<SuiteResult>& suites) {
    int diverged = 0;
    std::string detail;
    for (std::size_t m = 0; m < suites.size(); ++m) {
      const std::string& label = set.machines[m].name;
      auto it = baseline.find(label);
      if (it == baseline.end() ||
          it->second != bench::aggregatesJson(suites[m]).dumpCompact()) {
        ++diverged;
        detail += label + " ";
      }
    }
    report.check("table2-aggregates-equal-baseline", diverged == 0, detail);
    std::int64_t notChecked = 0, violations = 0;
    for (const LoopResult& r : rows) {
      if (!r.validated || !r.validatedPhysical || !r.certified) ++notChecked;
      violations += r.trace.verifyViolations + r.trace.certifyViolations;
    }
    report.check("every-row-validated-and-certified", notChecked == 0,
                 std::to_string(notChecked) + " rows not validated+certified");
    report.check("zero-verify-certify-violations", violations == 0,
                 std::to_string(violations) + " violations");
    const std::vector<ExpectedFailure> none;
    static_cast<void>(checkFailures(rows, &none, report));
    report.failed = notChecked;
  });
}

void runManifestCheap(const Args& args, Report& report, SpanRecorder& spans) {
  CompileSet set;
  ManifestParams params;
  params.seed = args.manifestSeed;
  params.count = args.cheapPrefix;
  const CorpusManifest manifest(params);
  auto setUp = [&] {
    set = CompileSet{};
    set.loops.reserve(static_cast<std::size_t>(manifest.size()));
    for (int i = 0; i < manifest.size(); ++i) set.loops.push_back(manifest.materialize(i));
    set.machines.push_back(MachineDesc::paper16(4, CopyModel::Embedded));
    for (const Loop& l : set.loops) set.jobs.push_back(Job{&l, 0});
    // rapt-shard's 100k-scale default: schedule, partition, allocate only.
    set.options.simulate = false;
    set.options.verify = false;
    set.options.certify = false;
    set.options.threads = 1;
  };

  // Job k is manifest row k.
  runCompileWorkload(
      args, report, spans, set, kManifestCheapPassSeconds, setUp,
      [&](int k) { return manifest.stratumNameOf(k); },
      [&](const std::vector<LoopResult>& rows, const std::vector<SuiteResult>&) {
        const std::uint64_t h = semanticRowsHash(rows);
        report.extra["rowsHash"] = hashToHex(h);
        const Recorded* rec = recordedFor("manifest-cheap", args.manifestSeed, args.cheapPrefix);
        if (rec != nullptr) {
          report.check("rows-hash-equals-recorded", hashToHex(h) == rec->rowsHash,
                       hashToHex(h) + " vs " + rec->rowsHash);
          report.failed = checkFailures(rows, &rec->failures, report);
        } else {
          report.failed = checkFailures(rows, nullptr, report);
        }
      });
}

}  // namespace perfbench
