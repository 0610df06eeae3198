// service-mixed: an in-process ServiceServer (2 compile workers, cache
// journal on) driven as a closed loop by 2 ServiceClient connections.
//
// The request stream is fixed per seed: `streamNewKeys` first requests of a
// (loop, machine) key, in a fixed order (kKeyOrderSeed), spread at seeded
// positions over `streamRequests` requests; every other request repeats a
// seeded earlier key of the same client. A first request is a cache miss
// (admission, compile, insert, journal append); a repeat is a hit. Each pass
// starts a fresh server, so every pass serves the same stream against an
// empty cache.
#include <filesystem>
#include <thread>

#include "BenchCommon.h"
#include "Workloads.h"
#include "pipeline/WorkerProtocol.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Stats.h"

namespace perfbench {

using namespace rapt;

namespace {

struct Key {
  int loop;
  int machine;
};

/// One request's outcome as the client saw it.
struct Outcome {
  int key = 0;
  bool ok = false;
  bool hit = false;
  std::int64_t roundTripNs = 0;
  std::int64_t queueNs = 0;
  std::string text;  ///< the reply's result document
  LoopResult result;
  std::string error;
};

std::int64_t fileBytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

}  // namespace

void runServiceMixed(const Args& args, Report& report, SpanRecorder& spans) {
  constexpr int kClients = 2;
  // The order in which keys first appear. It is fixed, not drawn from
  // --seed, so that every seed serves the same 1000 keys and the quality
  // metrics stay identical across seeds.
  constexpr std::uint64_t kKeyOrderSeed = 0x52415054;
  std::vector<Loop> loops;
  std::vector<MachineDesc> machines;
  std::vector<Key> keyOrder;
  std::vector<int> stream;  ///< index into keyOrder per request
  PipelineOptions options;

  const std::string socketPath = args.runDir + "/served.sock";
  const std::string journalPath = args.runDir + "/cache.jsonl";
  std::unique_ptr<ServiceServer> server;
  std::vector<ServiceClient> clients(kClients);

  auto stopServer = [&] {
    for (ServiceClient& c : clients) c.close();
    if (server) server->stop();
    server.reset();
  };
  auto setup = [&] {
    std::filesystem::remove(journalPath);
    loops = bench::corpus();
    machines.clear();
    for (const bench::MachineCase& mc : bench::kMachineCases)
      machines.push_back(MachineDesc::paper16(mc.clusters, mc.model));
    const int numKeys = static_cast<int>(loops.size() * machines.size());
    if (args.streamNewKeys < kClients || args.streamNewKeys > numKeys ||
        args.streamRequests < args.streamNewKeys)
      throw BenchError("stream needs " + std::to_string(kClients) + " <= new keys <= " +
                       std::to_string(numKeys) +
                       " and requests >= new keys");
    keyOrder.clear();
    for (int k : seededOrder(numKeys, kKeyOrderSeed))
      keyOrder.push_back(Key{k % static_cast<int>(loops.size()),
                             k / static_cast<int>(loops.size())});
    // Request i goes to client i % kClients. Each client's first request
    // is a first request of a key; the other first requests sit at seeded
    // positions. A repeat draws from the keys its own client introduced, so
    // the miss that introduced it has completed: every repeat is a hit.
    SplitMix64 rng(args.seed);
    std::vector<int> rest = seededOrder(args.streamRequests - kClients, rng.next());
    std::vector<char> isNew(static_cast<std::size_t>(args.streamRequests), 0);
    for (int c = 0; c < kClients; ++c) isNew[static_cast<std::size_t>(c)] = 1;
    for (int i = 0; i < args.streamNewKeys - kClients; ++i)
      isNew[static_cast<std::size_t>(rest[static_cast<std::size_t>(i)] + kClients)] = 1;
    stream.clear();
    std::vector<std::vector<int>> introduced(kClients);  ///< keys per client
    int next = 0;
    for (int i = 0; i < args.streamRequests; ++i) {
      std::vector<int>& own = introduced[static_cast<std::size_t>(i % kClients)];
      if (isNew[static_cast<std::size_t>(i)] != 0) {
        own.push_back(next++);
        stream.push_back(own.back());
      } else {
        stream.push_back(own[static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(own.size()) - 1))]);
      }
    }
    ServerOptions so;
    so.socketPath = socketPath;
    so.threads = 2;
    so.cacheJournalPath = journalPath;
    server = std::make_unique<ServiceServer>(so);
    std::string error;
    if (!server->start(error)) throw BenchError("server start: " + error);
    for (ServiceClient& c : clients)
      if (!c.connect(socketPath, error)) throw BenchError("client connect: " + error);
  };

  SetupTimes setupTimes;

  std::vector<Outcome> firstPass;
  std::vector<std::int64_t> all, hits, misses;
  std::int64_t requests = 0, wallNs = 0, tracingNs = 0;
  std::vector<std::int64_t> protocolBytes(kClients, 0);
  std::vector<SpanRecorder> clientSpans(kClients, SpanRecorder(args.trace));
  std::int64_t cacheHits = 0, cacheMisses = 0, insertions = 0, evictions = 0,
               maxDepth = 0, overload = 0, appendFailures = 0, journalBytes = 0;
  // Server-side time from receipt to reply, per response (ServerStats; the
  // reply envelope's serviceNs is 0 on hits).
  std::int64_t hitService = 0, missService = 0;
  bool repeatable = true;

  // Every pass starts a fresh server, after extra set-ups that make up the
  // repeats setup_s is the median of. Stopping a server is not set-up.
  const int passes = passCount(args, 10.0);  // nominal pass time, seconds
  for (int pass = 0; pass < passes; ++pass) {
    for (int i = setupsBeforePass(pass, passes); i > 1; --i) {
      setupTimes.time(setup);
      stopServer();
    }
    setupTimes.time(setup);
    std::vector<Outcome> outcomes(stream.size());
    std::vector<std::int64_t> clientTracingNs(kClients, 0);
    auto client = [&](int c) {
      ServiceClient& cl = clients[static_cast<std::size_t>(c)];
      SpanRecorder& rec = clientSpans[static_cast<std::size_t>(c)];
      std::int64_t& bytes = protocolBytes[static_cast<std::size_t>(c)];
      for (std::size_t i = static_cast<std::size_t>(c); i < stream.size(); i += kClients) {
        const Key& k = keyOrder[static_cast<std::size_t>(stream[i])];
        const Loop& loop = loops[static_cast<std::size_t>(k.loop)];
        const MachineDesc& m = machines[static_cast<std::size_t>(k.machine)];
        const auto id = static_cast<std::int64_t>(i);
        Outcome& o = outcomes[i];
        o.key = stream[i];
        std::int64_t traceStart = 0;
        int root = -1;
        if (rec.enabled()) {
          traceStart = nowNs();
          root = rec.begin("service.request", id);
          const int s = rec.begin("protocol.encode", id);
          const std::string line = encodeServiceJobRequest(id, loop, m, options).dumpCompact();
          rec.end(s);
          bytes += static_cast<std::int64_t>(line.size());
          const int h = rec.begin("protocol.hash", id);
          static_cast<void>(suiteConfigHash(m, options));
          static_cast<void>(loopTextHash(loop));
          rec.end(h);
          clientTracingNs[static_cast<std::size_t>(c)] += nowNs() - traceStart;
        }
        ServiceReply reply;
        const int rt = rec.begin("service.roundtrip", id);
        const std::int64_t t0 = nowNs();
        o.ok = cl.compile(loop, m, options, reply, o.error);
        o.roundTripNs = nowNs() - t0;
        rec.end(rt);
        o.hit = reply.cacheHit;
        o.queueNs = reply.queueNs;
        o.ok = o.ok && reply.result.ok;
        if (!o.ok && o.error.empty()) o.error = reply.result.error;
        o.text = std::move(reply.resultText);
        o.result = std::move(reply.result);
        if (rec.enabled()) {
          const std::int64_t t1 = nowNs();
          const int d = rec.begin("protocol.decode", id);
          Json doc;
          std::string error;
          LoopResult decoded;
          if (!Json::parse(o.text, doc, error) || !decodeLoopResult(doc, decoded, error))
            o.ok = false;
          rec.end(d);
          rec.end(root);
          bytes += static_cast<std::int64_t>(o.text.size());
          clientTracingNs[static_cast<std::size_t>(c)] += nowNs() - t1;
        }
      }
    };
    const std::int64_t start = nowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
    wallNs += nowNs() - start;
    for (std::int64_t t : clientTracingNs) tracingNs += t;

    const ServerStats st = server->stats();
    cacheHits += st.cache.hits;
    cacheMisses += st.cache.misses;
    insertions += st.cache.insertions;
    evictions += st.cache.evictions;
    maxDepth = std::max(maxDepth, st.queue.maxDepthSeen);
    overload += st.rejectedOverload;
    appendFailures += st.cache.journalAppendFailures;
    for (std::int64_t ns : st.hitLatencyNs) hitService += ns;
    for (std::int64_t ns : st.missLatencyNs) missService += ns;
    stopServer();  // closes the journal, so its size is final
    journalBytes += fileBytes(journalPath);
    for (const Outcome& o : outcomes) {
      all.push_back(o.roundTripNs);
      (o.hit ? hits : misses).push_back(o.roundTripNs);
    }
    requests += static_cast<std::int64_t>(outcomes.size());
    if (pass == 0) {
      firstPass = std::move(outcomes);
    } else {
      for (std::size_t i = 0; i < outcomes.size(); ++i)
        repeatable = repeatable && semanticHash(outcomes[i].result) ==
                                       semanticHash(firstPass[i].result);
    }
  }
  std::filesystem::remove(journalPath);

  // ---- correctness: every reply ok; every first request of a key missed
  // and every repeat hit; every hit byte-identical to its key's miss reply.
  std::map<int, const Outcome*> firstMiss;
  std::int64_t failed = 0, hitMismatches = 0, wrongOutcome = 0;
  std::string firstError;
  for (const Outcome& o : firstPass) {
    if (!o.ok && failed++ == 0) firstError = o.error;
    if (o.hit) continue;
    if (!firstMiss.emplace(o.key, &o).second) ++wrongOutcome;  // a repeat missed
  }
  for (const Outcome& o : firstPass) {
    auto it = firstMiss.find(o.key);
    if (!o.hit) continue;
    if (it == firstMiss.end()) ++wrongOutcome;  // a first request hit
    else if (it->second->text != o.text) ++hitMismatches;
  }
  report.attempted = static_cast<std::int64_t>(firstPass.size());
  report.failed = failed + hitMismatches + wrongOutcome;
  report.check("every-reply-ok", failed == 0, firstError);
  report.check("misses-and-hits-as-streamed", wrongOutcome == 0,
               std::to_string(wrongOutcome) + " requests missed or hit against the stream");
  report.check("hits-byte-identical-to-miss", hitMismatches == 0,
               std::to_string(hitMismatches) + " mismatching hits");
  report.check("passes-bit-identical", repeatable);

  // Code quality of what the service returned: one row per key, in key order.
  std::vector<double> normalized;
  std::int64_t copies = 0;
  for (const auto& [key, o] : firstMiss) {
    if (!o->result.ok) continue;
    normalized.push_back(o->result.normalizedSize());
    copies += o->result.bodyCopies;
  }

  const auto n = [](const std::vector<std::int64_t>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  Json lat = Json::object();
  lat["hit_p50_ms"] = guardedPercentileMs(hits, 50, "hit_p50_ms");
  lat["hit_p99_ms"] = guardedPercentileMs(hits, 99, "hit_p99_ms");
  lat["hits"] = n(hits);
  lat["miss_p50_ms"] = guardedPercentileMs(misses, 50, "miss_p50_ms");
  lat["miss_p95_ms"] = guardedPercentileMs(misses, 95, "miss_p95_ms");
  lat["misses"] = n(misses);
  report.extra["latency"] = lat;

  if (!args.trace) {
    report.metric("setup_s", "s", "lower", setupTimes.medianSeconds(),
                  setupTimes.count());
    report.metric("latency_p50_ms", "ms", "lower", guardedPercentileMs(all, 50, "latency_p50_ms"),
                  n(all));
    report.metric("latency_p99_ms", "ms", "lower", guardedPercentileMs(all, 99, "latency_p99_ms"),
                  n(all));
    report.metric("throughput_per_s", "1/s", "higher",
                  1e9 * ratio(requests, wallNs), requests);
    report.metric("peak_rss_mb", "MiB", "lower", peakRssMb(false));
    report.metric("kernel_size_hmean", "%", "lower", harmonicMean(normalized),
                  static_cast<std::int64_t>(normalized.size()));
    report.metric("body_copies", "count", "lower", static_cast<double>(copies));
    return;
  }

  for (const SpanRecorder& r : clientSpans) spans.absorb(r);
  std::int64_t queue = 0, roundTrips = 0;
  for (const Outcome& o : firstPass) {
    queue += o.queueNs;
    roundTrips += o.roundTripNs;
  }
  const std::int64_t transport = roundTrips - hitService - missService;
  std::int64_t bytes = 0;
  for (std::int64_t b : protocolBytes) bytes += b;
  const std::map<std::string, std::int64_t> self = spans.selfNs();
  auto count = [](std::int64_t v) { return static_cast<double>(v); };
  report.layer("protocol.encode_ms", selfMs(self, "protocol.encode"));
  report.layer("protocol.decode_ms", selfMs(self, "protocol.decode"));
  report.layer("protocol.hash_ms", selfMs(self, "protocol.hash"));
  report.layer("protocol.bytes", count(bytes));
  report.layer("service.transport_ms", ms(transport));
  report.layer("service.queue_wait_ms", ms(queue));
  report.layer("service.hit_service_ms", ms(hitService));
  report.layer("service.miss_service_ms", ms(missService));
  report.layer("service.hit_p50_ms", lat.find("hit_p50_ms")->asDouble(), n(hits));
  report.layer("service.hit_p99_ms", lat.find("hit_p99_ms")->asDouble(), n(hits));
  report.layer("service.miss_p50_ms", lat.find("miss_p50_ms")->asDouble(), n(misses));
  report.layer("service.miss_p95_ms", lat.find("miss_p95_ms")->asDouble(), n(misses));
  report.layer("service.cache_hits", count(cacheHits));
  report.layer("service.cache_misses", count(cacheMisses));
  report.layer("service.cache_insertions", count(insertions));
  report.layer("service.cache_evictions", count(evictions));
  report.layer("service.hit_ratio", ratio(cacheHits, cacheHits + cacheMisses));
  report.layer("service.queue_max_depth", count(maxDepth));
  report.layer("service.rejected_overload", count(overload));
  report.layer("service.journal_append_failures", count(appendFailures));
  report.layer("service.journal_bytes", count(journalBytes));
  report.layer("trace.overhead_pct", 100.0 * ratio(tracingNs, roundTrips));
  report.layer("outcome.failed_rows", count(failed));
  report.layer("outcome.fail_ratio", ratio(failed, report.attempted));
}

}  // namespace perfbench
