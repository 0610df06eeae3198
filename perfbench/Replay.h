// The traced form of compileLoop: the same steps, in the same order, through
// the same public functions of src/, with a span around each call.
//
// Nothing inside rapt is instrumented. The replay mirrors
// CompilerPipeline.cpp's control flow — static gate, ideal schedule, the
// partitioner ladder, the II-escalation loop, and finishSchedule's emit /
// verify / certify / allocate / simulate sequence — so its LoopResult must
// equal compileLoop's on every deterministic field. The traced runs check
// that for every loop (pipeline.replay_mismatches), which is what keeps the
// per-layer times honest: a replay that drifted from compileLoop would be
// timing some other program.
#pragma once

#include <cstdint>
#include <string>

#include "Spans.h"
#include "pipeline/CompilerPipeline.h"

namespace perfbench {

/// Deterministic work counted at the layer boundaries, summed over loops.
struct LayerCounters {
  std::int64_t placements = 0;     ///< scheduler placement steps, all attempts
  std::int64_t iiEscalations = 0;  ///< clustered II bumps after failed allocation
  std::int64_t copies = 0;         ///< body copies inserted, all attempts
  std::int64_t fallbacks = 0;      ///< partitioner ladder rungs past the first
  std::int64_t spills = 0;         ///< spills reported by every allocation try
  std::int64_t emittedOps = 0;     ///< ops in every emitted stream
  std::int64_t verifiedOps = 0;    ///< emitted ops re-checked by the verifier
  std::int64_t certifiedValues = 0;
  std::int64_t simulatedCycles = 0;  ///< cycles of every simulation run

  LayerCounters& operator+=(const LayerCounters& o);
};

/// Empty when the replay mirrors compileLoop for `options`; otherwise the
/// option it does not cover (the benchmark uses only covered options).
[[nodiscard]] std::string replayUnsupported(const rapt::PipelineOptions& options);

/// compileLoop(loop, machine, options), one span per layer call. Spans of
/// this loop carry `traceId`.
[[nodiscard]] rapt::LoopResult replayCompile(const rapt::Loop& loop,
                                             const rapt::MachineDesc& machine,
                                             const rapt::PipelineOptions& options,
                                             SpanRecorder& spans, std::int64_t traceId,
                                             LayerCounters& counters);

/// FNV-1a over the row with its wall times stripped (ShardProtocol's
/// semanticResultHash): equal iff two results agree on every deterministic
/// field.
[[nodiscard]] std::uint64_t semanticHash(const rapt::LoopResult& r);

}  // namespace perfbench
