// shard-full: runShardedSuite over a CorpusManifest prefix with the full
// pipeline, 2 shard children (this executable with --worker), journals in
// the run directory. The prefix holds m118, whose simulation traps
// (INT64_MIN / -1) on every attempt, so the campaign exercises deaths,
// retries, splits, poison quarantine and duplicate compiles as well as
// spawn, heartbeat, journal and merge.
#include <algorithm>
#include <filesystem>

#include "Expected.h"
#include "Workloads.h"
#include "pipeline/WorkerProtocol.h"
#include "shard/Orchestrator.h"
#include "support/Journal.h"

namespace perfbench {

using namespace rapt;

namespace {

/// What the journals on disk hold after a campaign.
struct JournalScan {
  std::vector<std::int64_t> rowNs;  ///< compile time of every journaled row
  std::int64_t bytes = 0;
  std::int64_t rows = 0;            ///< attempt-journal rows, duplicates included
  std::vector<std::string> poisoned;  ///< "loop:class" of poison.jsonl rows
  int undecodable = 0;  ///< rows that do not decode or do not match the manifest
};

/// Reads every journal of `dir`, checking each row's loop hash against the
/// manifest's (`loopHashes`, by global index).
JournalScan scanJournals(const std::string& dir, const std::vector<std::uint64_t>& loopHashes) {
  JournalScan scan;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".jsonl") continue;
    scan.bytes += static_cast<std::int64_t>(entry.file_size());
    const bool poison = entry.path().filename() == "poison.jsonl";
    const JournalContents j = loadJournal(entry.path().string());
    for (const Json& row : j.rows) {
      const Json* result = row.find("result");
      LoopResult r;
      std::string error;
      const Json* index = row.find("index");
      const Json* hash = row.find("loopHash");
      const bool known = index != nullptr && index->isInt() && index->asInt() >= 0 &&
                         index->asInt() < static_cast<std::int64_t>(loopHashes.size()) &&
                         hash != nullptr && hash->isString() &&
                         hash->asString() ==
                             hashToHex(loopHashes[static_cast<std::size_t>(index->asInt())]);
      if (!known || result == nullptr || !decodeLoopResult(*result, r, error)) {
        ++scan.undecodable;
        continue;
      }
      if (poison) {
        scan.poisoned.push_back(r.loopName + ":" + failureClassName(r.failureClass));
      } else {
        ++scan.rows;
        scan.rowNs.push_back(r.trace.totalNs);
      }
    }
  }
  return scan;
}

}  // namespace

void runShardFull(const Args& args, Report& report, SpanRecorder& spans) {
  ShardOptions opt;
  opt.manifest.seed = args.manifestSeed;
  opt.manifest.count = args.shardPrefix;
  opt.machine = MachineDesc::paper16(4, CopyModel::Embedded);
  opt.pipeline.threads = 1;  // one shard child = one worker thread
  opt.concurrency = 2;
  opt.journalDir = args.runDir + "/shard";
  opt.retrySeed = args.seed;

  std::vector<std::uint64_t> loopHashes;
  auto setup = [&] {
    std::filesystem::remove_all(opt.journalDir);
    std::filesystem::create_directories(opt.journalDir);
    const CorpusManifest manifest(opt.manifest);
    loopHashes.clear();
    for (int i = 0; i < manifest.size(); ++i)
      loopHashes.push_back(loopTextHash(manifest.materialize(i)));
  };
  SetupTimes setupTimes;

  ShardReport first;
  JournalScan scan;
  std::vector<std::int64_t> rowNs;
  std::int64_t wallNs = 0, rows = 0, spanNs = 0, busyNs = 0;
  bool repeatable = true;
  // At least kMinCampaigns campaigns, traced runs too, so that the row
  // percentiles pool rows from several campaigns.
  constexpr int kMinCampaigns = 3;
  const int passes = std::max(kMinCampaigns, passCount(args, 5.0));  // 5 s a campaign
  for (int pass = 0; pass < passes; ++pass) {
    for (int i = setupsBeforePass(pass, passes); i > 0; --i) setupTimes.time(setup);
    const std::int64_t a = nowNs();
    const int campaign = spans.begin("shard.campaign", pass);
    const std::int64_t t0 = nowNs();
    ShardReport rep = runShardedSuite(opt);
    const std::int64_t t1 = nowNs();
    spans.end(campaign);
    spanNs += (t0 - a) + (nowNs() - t1);
    wallNs += t1 - t0;
    rows += opt.manifest.count;
    JournalScan sc;
    {
      SpanRecorder::Scope s(spans, "shard.scan", pass);
      sc = scanJournals(opt.journalDir, loopHashes);
    }
    rowNs.insert(rowNs.end(), sc.rowNs.begin(), sc.rowNs.end());
    for (std::int64_t ns : sc.rowNs) busyNs += ns;
    if (pass == 0) {
      first = std::move(rep);
      scan = std::move(sc);
    } else {
      repeatable = repeatable && rep.aggregateRowsHash == first.aggregateRowsHash;
    }
  }
  std::filesystem::remove_all(opt.journalDir);

  // ---- correctness
  const SuiteResult& agg = first.aggregate;
  report.attempted = opt.manifest.count;
  report.check("campaign-completed", first.ok && agg.plannedLoops == opt.manifest.count,
               first.error);
  report.check("passes-bit-identical", repeatable);
  report.check("journal-rows-decodable", scan.undecodable == 0,
               std::to_string(scan.undecodable) + " undecodable rows");
  report.extra["rowsHash"] = first.aggregateRowsHashHex;
  Json byClass = Json::object();
  std::map<std::string, int> failures;  // class -> count
  for (int c = 1; c < kNumFailureClasses; ++c) {
    const int count = agg.failuresByClass[static_cast<std::size_t>(c)];
    if (count == 0) continue;
    byClass[failureClassName(static_cast<FailureClass>(c))] = count;
    failures[failureClassName(static_cast<FailureClass>(c))] = count;
  }
  report.extra["failuresByClass"] = std::move(byClass);
  Json poisoned = Json::array();
  for (const std::string& p : scan.poisoned) poisoned.push(p);
  report.extra["poisonedRows"] = std::move(poisoned);

  std::int64_t unexpected = first.ok ? 0 : opt.manifest.count;
  if (const Recorded* rec = recordedFor("shard-full", args.manifestSeed, args.shardPrefix)) {
    report.check("rows-hash-equals-recorded", first.aggregateRowsHashHex == rec->rowsHash,
                 first.aggregateRowsHashHex + " vs " + rec->rowsHash);
    // The rows hash pins every row; the failure list names the expected
    // classes, and each poisoned (crashing) row must sit in poison.jsonl.
    std::map<std::string, int> want;
    std::string missing;
    for (const ExpectedFailure& e : rec->failures) {
      ++want[e.failureClass];
      if (std::string(e.failureClass) == "crash" &&
          std::find(scan.poisoned.begin(), scan.poisoned.end(),
                    std::string(e.loop) + ":crash") == scan.poisoned.end())
        missing += std::string(e.loop) + " ";
    }
    report.check("failure-rows-as-expected", want == failures && missing.empty(),
                 missing.empty() ? "" : "not quarantined as crash: " + missing);
    if (want != failures || !missing.empty()) unexpected += 1;
  }
  report.failed = unexpected;

  const auto n = static_cast<std::int64_t>(rowNs.size());
  if (!args.trace) {
    report.metric("setup_s", "s", "lower", setupTimes.medianSeconds(),
                  setupTimes.count());
    report.metric("latency_p50_ms", "ms", "lower",
                  guardedPercentileMs(rowNs, 50, "latency_p50_ms"), n);
    report.metric("latency_p99_ms", "ms", "lower",
                  guardedPercentileMs(rowNs, 99, "latency_p99_ms"), n);
    report.metric("throughput_per_s", "1/s", "higher",
                  1e9 * ratio(rows, wallNs), rows);
    report.metric("peak_rss_mb", "MiB", "lower", peakRssMb(true));
    report.metric("kernel_size_hmean", "%", "lower", agg.harmMeanNormalized,
                  opt.manifest.count - agg.failures);
    report.metric("body_copies", "count", "lower", static_cast<double>(agg.totalBodyCopies));
    return;
  }

  const ShardCounters& c = first.counters;
  auto count = [](std::int64_t v) { return static_cast<double>(v); };
  report.layer("shard.attempts", count(c.attemptsLaunched));
  report.layer("shard.deaths", count(c.deaths));
  report.layer("shard.retries", count(c.retries));
  report.layer("shard.splits", count(c.splits));
  report.layer("shard.poisoned_rows", count(c.poisonedRows));
  report.layer("shard.stragglers_cancelled", count(c.stragglersCancelled));
  report.layer("shard.duplicate_rows", count(c.duplicateRowsDropped));
  report.layer("shard.row_compiles", count(scan.rows));
  report.layer("shard.useful_ratio", ratio(opt.manifest.count, scan.rows));
  report.layer("shard.row_p50_ms", guardedPercentileMs(rowNs, 50, "shard.row_p50_ms"), n);
  report.layer("shard.row_p99_ms", guardedPercentileMs(rowNs, 99, "shard.row_p99_ms"), n);
  report.layer("shard.busy_ratio", ratio(busyNs, wallNs * opt.concurrency));
  report.layer("shard.journal_bytes", count(scan.bytes));
  report.layer("workload.materialize_ms", setupTimes.medianSeconds() * 1e3);
  // Tracing adds only the span around the campaign call (the journal scan
  // runs in both modes), so its overhead is that span's own cost.
  report.layer("trace.overhead_pct", 100.0 * ratio(spanNs, wallNs));
  report.layer("outcome.failed_rows", count(agg.failures));
  report.layer("outcome.fail_ratio", ratio(agg.failures, opt.manifest.count));
}

}  // namespace perfbench
