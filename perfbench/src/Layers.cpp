//===- perfbench/src/Layers.cpp - Calls into the library's layers ---------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <optional>

#include "exec/bytecode/Compiler.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "link/Linker.h"
#include "xform/Xform.h"

using namespace dsm;

namespace perfbench {

Expected<ProgramHandle> compileProgram(Session &S, const Cell &C,
                                       Tracer *T) {
  ScopedSpan Prog(T, "setup.program");
  Expected<ProgramHandle> Handle = Error::make("not compiled");
  {
    ScopedSpan Sp(T, "session.compile");
    Handle = S.compile({{C.FileName, C.Source}});
  }
  if (!Handle)
    return Handle;

  std::vector<std::unique_ptr<ir::Module>> Modules;
  {
    ScopedSpan Sp(T, "lang.parse");
    auto M = lang::parseSource(C.Source, C.FileName);
    if (!M)
      return M.takeError();
    Modules.push_back(std::move(*M));
  }
  {
    ScopedSpan Sp(T, "lang.check");
    if (Error E = lang::checkModule(*Modules.back()))
      return E;
  }
  std::optional<link::Program> Linked;
  {
    ScopedSpan Sp(T, "link.link");
    auto L = link::linkProgram(std::move(Modules));
    if (!L)
      return L.takeError();
    Linked.emplace(std::move(*L));
  }
  {
    ScopedSpan Sp(T, "xform.transform");
    CompileOptions Defaults;
    for (auto &M : Linked->Modules)
      for (auto &P : M->Procedures) {
        if (Error E = xform::transformProcedure(*P, Defaults.Xform))
          return E;
        if (Error E = ir::verifyProcedure(*P))
          return E;
      }
  }
  {
    ScopedSpan Sp(T, "link.finalize");
    link::finalizeProgram(*Linked);
  }
  {
    ScopedSpan Sp(T, "exec.bc_compile");
    exec::bc::getOrCompile(**Handle);
  }
  return Handle;
}

exec::RunOptions runOptionsFor(const Cell &C,
                               exec::RunOptions::EngineKind K) {
  exec::RunOptions O;
  O.NumProcs = C.Procs;
  O.HostThreads = C.HostThreads;
  O.Engine = K;
  O.DefaultPolicy = C.Policy == "round-robin"
                        ? numa::PlacementPolicy::RoundRobin
                        : numa::PlacementPolicy::FirstTouch;
  return O;
}

Expected<RequestResult> runRequest(const link::Program &Prog, const Cell &C,
                                   const exec::RunOptions &Opts, Tracer *T,
                                   uint64_t ReqId) {
  ScopedSpan Root(T, "request", ReqId);
  if (Error E = Opts.validate(&C.Machine))
    return E;
  std::optional<numa::MemorySystem> Mem;
  std::optional<exec::Engine> Eng;
  {
    ScopedSpan Sp(T, "numa.init");
    Mem.emplace(C.Machine);
  }
  {
    ScopedSpan Sp(T, "exec.init");
    Eng.emplace(Prog, *Mem, Opts);
  }
  Expected<exec::RunResult> Run = Error::make("not run");
  {
    ScopedSpan Sp(T, "exec.run");
    Run = Eng->run();
  }
  if (!Run)
    return Run.takeError();
  std::vector<std::pair<double, double>> Sums;
  {
    ScopedSpan Sp(T, "exec.checksum");
    for (const std::string &A : C.Arrays) {
      auto Sum = Eng->arrayChecksum(A);
      if (!Sum)
        return Sum.takeError();
      auto WSum = Eng->arrayWeightedChecksum(A);
      if (!WSum)
        return WSum.takeError();
      Sums.emplace_back(*Sum, *WSum);
    }
  }
  {
    ScopedSpan Sp(T, "exec.teardown");
    Eng.reset();
    Mem.reset();
  }
  RequestResult R;
  R.ThreadedEpochs = Run->ThreadedEpochs;
  R.Got = Expect::of(*Run, std::move(Sums));
  return R;
}

double probeMs() {
  thread_local std::vector<uint64_t> Buf(size_t{1} << 18, 1);
  const size_t Mask = Buf.size() - 1;
  auto T0 = Clock::now();
  uint64_t X = 1, Sum = 0;
  // The writes into the buffer keep the loop from being elided.
  for (int I = 0; I < 400000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Sum += Buf[(X >> 30) & Mask];
    Buf[(X >> 40) & Mask] += Sum & 3;
  }
  return msBetween(T0, Clock::now());
}

void SimTally::add(const Expect &E, unsigned Threaded) {
  ++Requests;
  C += E.Counters;
  PagesPlanned += E.Redist.PlannedPageMoves;
  PagesNaive += E.Redist.NaivePageMoves;
  Rounds += E.Redist.Rounds;
  Retries += E.Redist.Retries;
  ThreadedEpochs += Threaded;
  ParallelRegions += E.ParallelRegions;
}

void SimTally::emit(std::map<std::string, double> &Out) const {
  double N = Requests ? static_cast<double>(Requests) : 1.0;
  double Acc = static_cast<double>(C.Loads + C.Stores);
  double Mem = static_cast<double>(C.LocalMemAccesses + C.RemoteMemAccesses);
  auto Share = [](uint64_t X, double Of) {
    return Of > 0 ? static_cast<double>(X) / Of : 0.0;
  };
  Out["numa.accesses"] = Acc / N;
  Out["numa.l1_miss_frac"] = Share(C.L1Misses, Acc);
  Out["numa.l2_miss_frac"] = Share(C.L2Misses, Acc);
  Out["numa.tlb_miss_frac"] = Share(C.TlbMisses, Acc);
  Out["numa.remote_frac"] = Share(C.RemoteMemAccesses, Mem);
  Out["numa.invalidations"] = static_cast<double>(C.Invalidations) / N;
  Out["numa.page_faults"] = static_cast<double>(C.PageFaults) / N;
  Out["numa.migrations"] = static_cast<double>(C.PageMigrations) / N;
  Out["runtime.redist_pages_planned"] = static_cast<double>(PagesPlanned) / N;
  Out["runtime.redist_pages_naive"] = static_cast<double>(PagesNaive) / N;
  Out["runtime.redist_rounds"] = static_cast<double>(Rounds) / N;
  Out["runtime.redist_retries"] = static_cast<double>(Retries) / N;
  Out["exec.threaded_epochs"] = static_cast<double>(ThreadedEpochs) / N;
  Out["exec.parallel_regions"] = static_cast<double>(ParallelRegions) / N;
}

void compileMetrics(const Tracer &T, int Reps, size_t Programs,
                    std::map<std::string, double> &Out) {
  const std::pair<const char *, std::vector<const char *>> Layers[] = {
      {"session.compile_ms", {"session.compile"}},
      {"lang.parse_ms", {"lang.parse", "lang.check"}},
      {"link.link_ms", {"link.link", "link.finalize"}},
      {"xform.transform_ms", {"xform.transform"}},
      {"exec.bc_compile_ms", {"exec.bc_compile"}},
  };
  for (const auto &[Metric, Spans] : Layers) {
    std::vector<double> PerRep(static_cast<size_t>(Reps), 0.0);
    for (const char *Name : Spans)
      for (const auto &[Root, Ms] : T.msByRoot(Name))
        if (Root >= 1 && Root <= static_cast<uint64_t>(Reps))
          PerRep[Root - 1] += Ms / static_cast<double>(Programs);
    Out[Metric] = quantile(PerRep, 0.5);
  }
}

} // namespace perfbench
