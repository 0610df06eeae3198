// perfbench, the rapt benchmark: one workload per process (README.md here).
//
//   perfbench --workload <paper-full|manifest-cheap|service-mixed|shard-full>
//             --seed <n> --seconds <s> --trace <0|1> [input knobs]
//
// Prints the metric table and checks, then one JSON line (the last line of
// stdout) that run.py turns into the benchmark's result line. Exits 0 when
// every check passed, 1 when a check failed, 2 on bad flags and 3 when the
// run refused to measure (BenchError). With --worker it is a shard child of
// the shard-full workload instead.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "Workloads.h"
#include "shard/ShardRunner.h"
#include "support/ArgParser.h"

using namespace perfbench;

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) return rapt::runShardWorker();

  Args a;
  int trace = 0;
  rapt::ArgParser parser("perfbench", "rapt end-to-end and per-layer benchmark");
  parser.addString("workload", &a.workload,
                   "paper-full | manifest-cheap | service-mixed | shard-full");
  parser.addUint64("seed", &a.seed, "seed of the call order and the request stream");
  parser.addInt("seconds", &a.seconds, "measure whole passes for about this long");
  parser.addInt("trace", &trace, "1 = traced run (per-layer metrics)");
  parser.addUint64("manifest-seed", &a.manifestSeed, "CorpusManifest seed");
  parser.addInt("cheap-prefix", &a.cheapPrefix, "manifest-cheap rows");
  parser.addInt("shard-prefix", &a.shardPrefix, "shard-full rows");
  parser.addInt("stream-requests", &a.streamRequests, "service-mixed requests per pass");
  parser.addInt("stream-new-keys", &a.streamNewKeys, "service-mixed first requests of a key");
  if (!parser.parse(argc, argv)) return parser.helpRequested() ? 0 : 2;
  a.trace = trace != 0;
  if (a.seconds < 0 || a.cheapPrefix < 1 || a.shardPrefix < 1) {
    std::fprintf(stderr, "perfbench: --seconds and the prefixes must be positive\n");
    return 2;
  }

  using Fn = void (*)(const Args&, Report&, SpanRecorder&);
  const std::map<std::string, Fn> workloads = {
      {"paper-full", runPaperFull},
      {"manifest-cheap", runManifestCheap},
      {"service-mixed", runServiceMixed},
      {"shard-full", runShardFull},
  };
  auto it = workloads.find(a.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", a.workload.c_str());
    return 2;
  }

  // Scratch files (socket, journals) live under the working directory and
  // go away with the run; reports and spans stay in .bench_out.
  a.runDir = ".bench_run/" + a.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(a.runDir);
  std::filesystem::create_directories(".bench_out");
  auto removeRunDir = [&] {
    std::filesystem::remove_all(a.runDir);
    std::error_code ignored;
    std::filesystem::remove(".bench_run", ignored);  // only when no other run uses it
  };
  Report report;
  SpanRecorder spans(a.trace);
  try {
    it->second(a, report, spans);
  } catch (const BenchError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    removeRunDir();
    return 3;
  }
  removeRunDir();
  if (a.trace) report.fillMissingLayers();

  const std::string stem = ".bench_out/" + a.workload + (a.trace ? "-trace" : "");
  if (a.trace && !spans.writeJsonLines(stem + "-spans.jsonl"))
    std::fprintf(stderr, "perfbench: cannot write %s-spans.jsonl\n", stem.c_str());
  const rapt::Json doc = report.json(a.workload, a.seed, a.trace);
  if (!doc.writeFile(stem + ".json"))
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());

  std::printf("perfbench %s seed %llu%s\n%s", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? " (traced)" : "",
              report.render().c_str());
  std::printf("%s\n", doc.dumpCompact().c_str());
  return report.correct() ? 0 : 1;
}
