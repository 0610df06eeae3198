#include "Replay.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "analysis/Linter.h"
#include "certify/Certifier.h"
#include "certify/SsaRename.h"
#include "ddg/Ddg.h"
#include "partition/Baselines.h"
#include "partition/CopyInserter.h"
#include "partition/GreedyPartitioner.h"
#include "partition/Rcg.h"
#include "pipeline/WorkerProtocol.h"
#include "regalloc/BankAssigner.h"
#include "regalloc/PhysicalRewrite.h"
#include "sched/ModuloScheduler.h"
#include "sched/PipelinedCode.h"
#include "shard/ShardProtocol.h"
#include "verify/PartitionVerifier.h"
#include "verify/ScheduleVerifier.h"
#include "vliwsim/Equivalence.h"
#include "vliwsim/VliwSimulator.h"

namespace perfbench {

using namespace rapt;

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  placements += o.placements;
  iiEscalations += o.iiEscalations;
  copies += o.copies;
  fallbacks += o.fallbacks;
  spills += o.spills;
  emittedOps += o.emittedOps;
  verifiedOps += o.verifiedOps;
  certifiedValues += o.certifiedValues;
  simulatedCycles += o.simulatedCycles;
  return *this;
}

std::string replayUnsupported(const PipelineOptions& options) {
  if (options.partitioner != PartitionerKind::GreedyRcg) return "partitioner";
  if (options.refinePasses != 0) return "refinePasses";
  if (options.compactLifetimes) return "compactLifetimes";
  if (options.fault.ratePercent != 0) return "fault";
  if (options.deadlineNs != 0) return "deadlineNs";
  return {};
}

std::uint64_t semanticHash(const LoopResult& r) {
  return semanticResultHash(encodeLoopResult(r));
}

namespace {

void fail(LoopResult& r, FailureClass cls, std::string detail) {
  r.ok = false;
  r.failureClass = cls;
  r.error = std::move(detail);
}

/// One traced compile: the state CompilerPipeline.cpp threads through its
/// helpers, plus the recorder.
struct Replay {
  const Loop& loop;
  const MachineDesc& machine;
  const PipelineOptions& options;
  SpanRecorder& spans;
  std::int64_t id;
  LayerCounters& n;
  LoopResult r;

  std::int64_t budgetLeft() const {
    if (options.workBudget <= 0) return 0;
    return std::max<std::int64_t>(1, options.workBudget - r.trace.schedPlacements);
  }
  bool budgetDone() const {
    return options.workBudget > 0 && r.trace.schedPlacements >= options.workBudget;
  }

  /// CompilerPipeline.cpp's finishSchedule. Returns false when allocation
  /// spilled (the caller bumps II).
  bool finish(const ClusteredLoop& clustered, const Ddg& cddg,
              const ModuloSchedule& sched) {
    std::int64_t trip = std::max<std::int64_t>(options.simTrip, 4);
    PipelinedCode code;
    {
      SpanRecorder::Scope s(spans, "sched.emit", id);
      code = emitPipelinedCode(clustered.loop, cddg, sched, trip, machine.lat);
      trip = std::max<std::int64_t>(trip, sched.stageCount() - 1 + 2LL * code.maxUnroll);
      if (trip != code.trip)
        code = emitPipelinedCode(clustered.loop, cddg, sched, trip, machine.lat);
    }
    for (const VliwInstr& in : code.instrs)
      n.emittedOps += static_cast<std::int64_t>(in.ops.size());
    r.stageCount = code.stageCount;
    r.maxUnroll = code.maxUnroll;

    if (options.verify) {
      SpanRecorder::Scope s(spans, "verify", id);
      VerifyReport rep = verifySchedule(cddg, machine, clustered.constraints, sched);
      rep.merge(verifyStream(code, cddg, machine, clustered.constraints));
      rep.merge(verifyPartition(code, clustered.partition, machine));
      for (const VliwInstr& in : code.instrs)
        r.trace.verifiedOps += static_cast<std::int64_t>(in.ops.size());
      if (!rep.ok()) {
        r.trace.verifyViolations += static_cast<int>(rep.violations.size());
        fail(r, FailureClass::VerifierViolation, "verification failed: " + rep.first());
        return true;
      }
    }

    if (options.certify) {
      SpanRecorder::Scope s(spans, "certify", id);
      CertifyReport cert =
          certifyStream(loop, clustered, code, machine, CertifyLayer::Virtual);
      if (!absorbCertify(cert, "certification failed: ")) return true;
    }

    BankAssignment alloc;
    if (options.allocateRegisters) {
      SpanRecorder::Scope s(spans, "regalloc", id);
      alloc = assignBanks(code, clustered.partition, machine);
      n.spills += alloc.totalSpills;
      if (r.allocRetries == 0) {
        r.spillsAtFirstTry = alloc.totalSpills;
        r.trace.spillRetries = alloc.totalSpills;
      }
      if (!alloc.success) return false;
      r.allocOk = true;
    }

    if (options.simulate) {
      SpanRecorder::Scope s(spans, "vliwsim", id);
      const SimResult sim = simulate(code, clustered.loop, machine, &clustered.partition);
      n.simulatedCycles += sim.totalCycles;
      const EquivalenceReport eq = checkEquivalence(loop, code, sim);
      if (!eq.equal) {
        fail(r, FailureClass::ValidationMismatch, "validation failed: " + eq.detail);
        return true;
      }
      r.validated = true;
      r.simulatedCycles = sim.totalCycles;
      r.trace.simulatedCycles = sim.totalCycles;
    }

    if (r.allocOk && (options.certify || options.simulate)) {
      PipelinedCode phys;
      {
        SpanRecorder::Scope s(spans, "regalloc.rewrite", id);
        phys = applyPhysicalAssignment(code, alloc);
      }
      if (options.certify) {
        SpanRecorder::Scope s(spans, "certify", id);
        CertifyReport cert =
            certifyStream(loop, clustered, phys, machine, CertifyLayer::Physical);
        if (!absorbCertify(cert, "physical certification failed: ")) return true;
      }
      if (options.simulate) {
        PipelinedCode ssa;
        {
          SpanRecorder::Scope s(spans, "certify.ssa", id);
          ssa = ssaRename(phys, clustered.loop, machine.lat);
        }
        SpanRecorder::Scope s(spans, "vliwsim", id);
        const SimResult physSim =
            simulate(ssa, clustered.loop, machine, &clustered.partition);
        n.simulatedCycles += physSim.totalCycles;
        const EquivalenceReport physEq = checkEquivalence(loop, ssa, physSim);
        if (!physEq.equal) {
          fail(r, FailureClass::ValidationMismatch,
               "physical validation failed: " + physEq.detail);
          return true;
        }
        r.validatedPhysical = true;
      }
    }

    if (options.certify) r.certified = true;
    return true;
  }

  /// Folds one certifier report into the result; false on a certify error.
  bool absorbCertify(CertifyReport& cert, const char* what) {
    r.trace.certifiedValues += cert.certifiedValues;
    const int errs = cert.errorCount();
    const std::string first = cert.firstError();
    for (Diagnostic& d : cert.diagnostics) r.diagnostics.push_back(std::move(d));
    if (errs == 0) return true;
    r.trace.certifyViolations += errs;
    fail(r, FailureClass::VerifierViolation, what + first);
    return false;
  }

  void resetRung() {
    r.error.clear();
    r.failureClass = FailureClass::None;
    r.clusteredII = 0;
    r.bodyCopies = 0;
    r.preheaderCopies = 0;
    r.stageCount = 0;
    r.maxUnroll = 0;
    r.allocOk = false;
    r.allocRetries = 0;
    r.refineMoves = 0;
    r.compactionMoves = 0;
    r.validated = false;
    r.validatedPhysical = false;
    r.certified = false;
    r.simulatedCycles = 0;
  }

  /// CompilerPipeline.cpp's compileLoopImpl.
  void run() {
    r.loopName = loop.name;
    r.numOps = loop.size();
    r.partitionerUsed = options.partitioner;
    {
      SpanRecorder::Scope s(spans, "analysis", id);
      if (auto err = validate(loop)) {
        fail(r, FailureClass::ParseError, *err);
        return;
      }
      if (options.staticAnalysis) {
        AnalysisReport rep = analyzeLoop(loop);
        r.trace.diagErrors = rep.errorCount();
        r.trace.diagWarnings = rep.warningCount();
        if (rep.errorCount() > 0) {
          fail(r, FailureClass::GateRefusal, "static analysis failed: " + rep.firstError());
          r.diagnostics = std::move(rep.diagnostics);
          return;
        }
        r.diagnostics = std::move(rep.diagnostics);
      }
    }

    const MachineDesc ideal = idealCounterpart(machine);
    std::optional<Ddg> ddg;
    {
      SpanRecorder::Scope s(spans, "ddg", id);
      ddg.emplace(Ddg::build(loop, machine.lat));
    }
    const std::vector<OpConstraint> freeConstraints(loop.size());
    ModuloSchedulerOptions idealOpts = options.sched;
    idealOpts.maxPlacements = budgetLeft();
    ModuloSchedulerResult idealRes;
    {
      SpanRecorder::Scope s(spans, "sched.ideal", id);
      idealRes = moduloSchedule(*ddg, ideal, freeConstraints, idealOpts);
    }
    r.trace.schedPlacements += idealRes.placements;
    n.placements += idealRes.placements;
    r.idealResII = idealRes.resII;
    r.idealRecII = idealRes.recII;
    if (!idealRes.success) {
      if (idealRes.budgetExhausted) {
        fail(r, FailureClass::Timeout, "work budget exhausted during ideal schedule");
      } else {
        fail(r, FailureClass::SchedCapacity, "ideal schedule not found within II limit");
      }
      return;
    }
    r.idealII = idealRes.schedule.ii;
    r.trace.idealCycles = r.idealII;
    if (options.verify) {
      SpanRecorder::Scope s(spans, "verify", id);
      const VerifyReport rep = verifySchedule(*ddg, ideal, freeConstraints, idealRes.schedule);
      if (!rep.ok()) {
        r.trace.verifyViolations += static_cast<int>(rep.violations.size());
        fail(r, FailureClass::VerifierViolation,
             "ideal schedule verification failed: " + rep.first());
        return;
      }
    }

    std::vector<PartitionerKind> ladder = {options.partitioner};
    if (options.partitionerFallback && options.partitioner != PartitionerKind::RoundRobin)
      ladder.push_back(PartitionerKind::RoundRobin);
    for (std::size_t rung = 0; rung < ladder.size(); ++rung) {
      const PartitionerKind kind = ladder[rung];
      if (rung > 0) {
        r.trace.fallbackUsed = 1;
        ++r.trace.recoverySteps;
        ++n.fallbacks;
      }
      r.partitionerUsed = kind;
      resetRung();
      if (budgetDone()) {
        fail(r, FailureClass::Timeout, "work budget exhausted before partitioning");
        return;
      }

      Partition partition;
      if (kind == PartitionerKind::GreedyRcg) {
        std::optional<Rcg> rcg;
        {
          SpanRecorder::Scope s(spans, "partition.rcg", id);
          rcg.emplace(Rcg::build(loop, *ddg, idealRes.schedule, options.weights));
        }
        SpanRecorder::Scope s(spans, "partition.assign", id);
        partition = greedyPartition(*rcg, machine.numClusters, options.weights);
      } else {
        SpanRecorder::Scope s(spans, "partition.assign", id);
        partition = roundRobinPartition(loop, machine.numClusters);
      }
      const std::vector<VirtReg> regs = loop.allRegs();
      if (!std::all_of(regs.begin(), regs.end(),
                       [&](VirtReg v) { return partition.isAssigned(v); })) {
        fail(r, FailureClass::PartitionFailure,
             std::string("partitioner ") + partitionerName(kind) +
                 " left registers without a bank");
        continue;
      }

      std::optional<ClusteredLoop> clustered;
      std::optional<std::string> invalid;
      {
        SpanRecorder::Scope s(spans, "partition.copy", id);
        clustered.emplace(insertCopies(loop, partition, machine));
        invalid = validate(clustered->loop);
      }
      r.bodyCopies = clustered->bodyCopies;
      r.preheaderCopies = clustered->preheaderCopies;
      n.copies += clustered->bodyCopies;
      if (invalid) {
        fail(r, FailureClass::CopyInsertFailure,
             "copy insertion produced an invalid loop: " + *invalid);
        continue;
      }

      std::optional<Ddg> cddg;
      {
        SpanRecorder::Scope s(spans, "ddg", id);
        cddg.emplace(Ddg::build(clustered->loop, machine.lat));
      }
      ModuloSchedulerOptions schedOpts = options.sched;
      bool rungFailed = false;
      for (int attempt = 0;; ++attempt) {
        ++r.trace.rescheduleAttempts;
        schedOpts.maxPlacements = budgetLeft();
        ModuloSchedulerResult res;
        {
          SpanRecorder::Scope s(spans, "sched.resched", id);
          res = moduloSchedule(*cddg, machine, clustered->constraints, schedOpts);
        }
        r.trace.schedPlacements += res.placements;
        n.placements += res.placements;
        if (!res.success) {
          if (res.budgetExhausted) {
            fail(r, FailureClass::Timeout,
                 "work budget exhausted during clustered schedule");
            return;
          }
          fail(r, FailureClass::SchedCapacity,
               "clustered schedule not found within II limit");
          rungFailed = true;
          break;
        }
        r.clusteredII = res.schedule.ii;
        r.allocRetries = attempt;
        r.trace.iiEscalations = attempt;
        if (finish(*clustered, *cddg, res.schedule)) {
          if (r.failureClass != FailureClass::None) return;
          break;
        }
        if (attempt >= options.maxAllocRetries) {
          fail(r, FailureClass::AllocCapacity,
               "register allocation failed after II relaxation");
          rungFailed = true;
          break;
        }
        ++r.trace.recoverySteps;
        ++n.iiEscalations;
        schedOpts.startII = res.schedule.ii + 1;
      }
      if (rungFailed) continue;
      r.ok = true;
      return;
    }
  }
};

}  // namespace

LoopResult replayCompile(const Loop& loop, const MachineDesc& machine,
                         const PipelineOptions& options, SpanRecorder& spans,
                         std::int64_t traceId, LayerCounters& counters) {
  const int root = spans.begin("pipeline.loop", traceId);
  Replay rep{loop, machine, options, spans, traceId, counters, LoopResult{}};
  try {
    rep.run();
  } catch (const std::exception& e) {
    rep.r = LoopResult{};
    rep.r.loopName = loop.name;
    rep.r.numOps = loop.size();
    rep.r.partitionerUsed = options.partitioner;
    fail(rep.r, FailureClass::InternalError, std::string("uncaught exception: ") + e.what());
  }
  spans.end(root);
  counters.verifiedOps += rep.r.trace.verifiedOps;
  counters.certifiedValues += rep.r.trace.certifiedValues;
  return rep.r;
}

}  // namespace perfbench
