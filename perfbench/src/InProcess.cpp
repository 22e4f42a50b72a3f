//===- perfbench/src/InProcess.cpp - Closed-loop in-process workloads -----===//
//
// Part of the dsm-dist-repro project.
//
// lu_serial, transpose_fullpath and redist_threaded: one caller issues
// requests back to back.  A round is the workload's fixed multiset of
// cells in an order drawn from the seed; rounds repeat until the
// measured window has elapsed, so every run holds whole rounds and its
// simulated totals are a multiple of one round's.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>

#include "Bench.h"
#include "Layers.h"
#include "support/Rng.h"

using namespace dsm;

namespace perfbench {

namespace {

/// A window runs at least this many requests per second of its length
/// (whole rounds), so a slow host still gets a p90 with ten samples
/// beyond it in a 20-s window.
constexpr double MinRequestsPerSecond = 5.0;
/// Request ids start here; set-up roots are 1..MaxSetupReps.
constexpr uint64_t FirstRequestId = 1000;

struct Prepared {
  const Cell *C = nullptr;
  ProgramHandle Prog;
  exec::RunOptions Opts;
  const Expect *Want = nullptr;
};

/// One set-up: a fresh session compiles every distinct program, then
/// one warm-up request per distinct cell runs and is checked against the
/// oracle.
Error setupOnce(const std::vector<Cell> &Cells, const Oracle &O, Tracer *T,
                int Rep, std::vector<Prepared> &Out, size_t &Programs,
                CacheStats &Stats) {
  ScopedSpan Root(T, "setup", static_cast<uint64_t>(Rep));
  SessionOptions SO;
  SO.Workers = 1;
  Session S(SO);
  std::map<std::string, ProgramHandle> BySource;
  Out.clear();
  for (const Cell &C : Cells) {
    ProgramHandle &H = BySource[C.Source];
    if (!H) {
      auto P = compileProgram(S, C, T);
      if (!P)
        return Error::make(C.Key + ": " + P.error().str());
      H = *P;
    }
    Prepared P;
    P.C = &C;
    P.Prog = H;
    P.Opts = runOptionsFor(C, exec::RunOptions::EngineKind::Bytecode);
    P.Want = O.find(C.Key);
    if (!P.Want)
      return Error::make("the oracle has no entry for '" + C.Key + "'");
    Out.push_back(std::move(P));
  }
  Programs = BySource.size();
  std::set<std::string> Warmed;
  for (const Prepared &P : Out) {
    if (!Warmed.insert(P.C->Key).second)
      continue;
    auto R = runRequest(*P.Prog, *P.C, P.Opts, T, 0);
    if (!R)
      return Error::make(P.C->Key + ": warm-up failed: " + R.error().str());
    if (std::string M = mismatch(*P.Want, R->Got); !M.empty())
      return Error::make(P.C->Key + ": warm-up differs from the oracle: " +
                         M);
  }
  Stats = S.cacheStats();
  return Error::success();
}

} // namespace

int runInProcess(const RunArgs &A, const Oracle &O, RunOutcome &Out) {
  const std::vector<Cell> Cells = closedLoopCells(A.Workload);
  std::unique_ptr<Tracer> Tr;
  if (A.Trace)
    Tr = std::make_unique<Tracer>(Clock::now());

  std::vector<double> SetupS;
  std::vector<Prepared> Ready;
  size_t Programs = 0;
  CacheStats Stats;
  for (int Rep = 1; moreSetups(SetupS); ++Rep) {
    double Speed = ProbeRefMs / probeMs();
    auto T0 = Clock::now();
    if (Error E = setupOnce(Cells, O, Tr.get(), Rep, Ready, Programs, Stats)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", E.str().c_str());
      return 1;
    }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3 * Speed);
  }

  // The measured window.  In a traced run, even rounds carry spans and
  // odd rounds run bare, so trace.overhead_frac compares like with like.
  SplitMix64 Rng(hashMix64(A.Seed));
  std::vector<size_t> Order(Ready.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::vector<double> AllMs, RawMs, ProbeMs, TracedMs, BareMs;
  std::map<std::string, std::vector<double>> OkMsByCell;
  std::map<uint64_t, uint64_t> TracedAccesses;
  SimTally Tally;
  uint64_t NextId = FirstRequestId;
  int Rounds = 0;
  const auto Start = Clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(A.Seconds));
  const double MinRequests = MinRequestsPerSecond * A.Seconds;
  for (; Rounds == 0 || Clock::now() < Deadline ||
         static_cast<double>(Out.Attempted) < MinRequests;
       ++Rounds) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    bool Traced = Tr && Rounds % 2 == 0;
    for (size_t I : Order) {
      const Prepared &P = Ready[I];
      uint64_t Id = NextId++;
      ProbeMs.push_back(probeMs());
      auto T0 = Clock::now();
      auto R = runRequest(*P.Prog, *P.C, P.Opts, Traced ? Tr.get() : nullptr,
                          Id);
      double Raw = msBetween(T0, Clock::now());
      double Ms = Raw * ProbeRefMs / ProbeMs.back();
      ++Out.Attempted;
      AllMs.push_back(Ms);
      RawMs.push_back(Raw);
      (Traced ? TracedMs : BareMs).push_back(Raw);
      std::string Why = R ? mismatch(*P.Want, R->Got) : R.error().str();
      if (!Why.empty()) {
        if (++Out.Failed <= 5)
          std::fprintf(stderr, "perfbench: request %llu (%s) failed: %s\n",
                       static_cast<unsigned long long>(Id), P.C->Key.c_str(),
                       Why.c_str());
        continue;
      }
      OkMsByCell[P.C->Key].push_back(Ms);
      if (Traced) {
        Tally.add(R->Got, R->ThreadedEpochs);
        TracedAccesses[Id] = R->Got.accesses();
      }
    }
  }
  double WindowS = msBetween(Start, Clock::now()) / 1e3;
  Out.Correct = Out.Failed == 0;

  auto &E = Out.EndToEnd;
  E["setup_s"] = quantile(SetupS, 0.5);
  E["req_ms_p50"] = quantile(AllMs, 0.5);
  E["req_ms_p90"] = quantile(AllMs, 0.9);
  // A round's simulated accesses over a round's host time, each cell's
  // time taken as its median over the window, so a stall of a few
  // requests does not swing the rate.
  double RoundAccesses = 0.0, RoundMs = 0.0;
  for (const Prepared &P : Ready)
    if (auto It = OkMsByCell.find(P.C->Key); It != OkMsByCell.end()) {
      RoundAccesses += static_cast<double>(P.Want->accesses());
      RoundMs += quantile(It->second, 0.5);
    }
  E["sim_maccess_per_s"] = RoundAccesses / 1e6 / (RoundMs / 1e3);
  E["peak_rss_mb"] = peakRssMb();
  E["ok_frac"] = static_cast<double>(Out.Attempted - Out.Failed) /
                 static_cast<double>(Out.Attempted);

  Out.Record["raw_req_ms_p50"] = quantile(RawMs, 0.5);
  Out.Record["raw_req_ms_p90"] = quantile(RawMs, 0.9);
  Out.Record["probe_ms_p50"] = quantile(ProbeMs, 0.5);
  Out.Record["rounds"] = Rounds;
  Out.Record["requests"] = static_cast<double>(Out.Attempted);
  Out.Record["window_s"] = WindowS;
  Out.Record["programs"] = static_cast<double>(Programs);

  if (!Tr)
    return 0;
  auto &L = Out.PerLayer;
  compileMetrics(*Tr, static_cast<int>(SetupS.size()), Programs, L);
  L["session.cache_hit_frac"] =
      static_cast<double>(Stats.Hits) /
      static_cast<double>(std::max<uint64_t>(1, Stats.Hits + Stats.Misses));
  L["session.evictions"] = static_cast<double>(Stats.Evictions);
  const std::pair<const char *, const char *> PerRequest[] = {
      {"numa.init_ms", "numa.init"},       {"exec.init_ms", "exec.init"},
      {"exec.run_ms", "exec.run"},         {"exec.checksum_ms", "exec.checksum"},
      {"exec.teardown_ms", "exec.teardown"},
  };
  for (const auto &[Metric, Span] : PerRequest) {
    std::vector<double> V;
    for (const auto &[Root, Ms] : Tr->msByRoot(Span))
      if (TracedAccesses.count(Root))
        V.push_back(Ms);
    L[Metric] = quantile(V, 0.5);
  }
  std::vector<double> NsPerAccess;
  for (const auto &[Root, Ms] : Tr->msByRoot("exec.run"))
    if (auto It = TracedAccesses.find(Root);
        It != TracedAccesses.end() && It->second)
      NsPerAccess.push_back(Ms * 1e6 / static_cast<double>(It->second));
  L["exec.run_ns_per_access"] = quantile(NsPerAccess, 0.5);
  Tally.emit(L);
  L["trace.overhead_frac"] =
      BareMs.empty() ? 0.0
                     : quantile(TracedMs, 0.5) / quantile(BareMs, 0.5) - 1.0;
  writeTraceFiles(*Tr, A);
  return 0;
}

} // namespace perfbench
