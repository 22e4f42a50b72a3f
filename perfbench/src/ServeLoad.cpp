//===- perfbench/src/ServeLoad.cpp - Open-loop serve workload -------------===//
//
// Part of the dsm-dist-repro project.
//
// serve_openloop: an in-process serve::Server with two workers on
// loopback, driven by two serve::Client connections.  Arrivals are a
// seeded Poisson process at a fixed rate; each connection takes the
// next due arrival when it is free, so a stall makes later sends go out
// late, and each request is timed from its scheduled send.  The mix is
// a fixed multiset in a seed-drawn order: one request in five carries a
// never-seen variant of the LU program, so the server's bounded program
// cache misses, compiles and evicts; the rest hit the small programs in
// equal shares.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "Bench.h"
#include "Layers.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Rng.h"

using namespace dsm;

namespace perfbench {

namespace {

constexpr int Connections = 2;
constexpr int ServeWorkers = 2;
/// Resident-program bound: the hot set plus room that a run of
/// variants would need ~25 misses in a row to push a hot program out.
constexpr size_t CacheBound = 32;
/// The share of requests that are compile misses.  Each takes over three
/// times as long as any hit, so the misses form their own latency mode
/// and the p90 lands inside it, not on the hits' noisy tail (with a
/// random mix of similar requests the p90 spread by 18-37% across runs).
constexpr double VariantShare = 0.2;
/// The fixed arrival rate: about a ninth of the 2-worker capacity
/// (loadgen.capacity_rps, 250-280/s on a 4-core x86 VM).  Queueing
/// amplifies the host's speed drift: over runs in one period, req_ms_p50
/// spread by 67% at 120/s (half of capacity), by 13-40% at 60/s and by
/// about 7% at 30/s.
constexpr double RateRps = 30.0;
/// Closed-loop requests that measure capacity before the window; fixed
/// so the cache holds the same programs when the window opens.
constexpr size_t CapacityRequests = 250;
constexpr uint64_t FirstRequestId = 1000;
/// A send counts as late when it leaves this long after its due time.
constexpr double LateMs = 1.0;

struct Planned {
  double AtMs = 0.0; ///< Due time from the window's start.
  size_t Kind = 0;   ///< Index into the kinds; the last one is the variant.
  serve::Request Req;
};

serve::Request makeRequest(const Cell &C, std::string Source) {
  serve::Request R;
  R.Kind = serve::Op::Run;
  R.Label = C.Key;
  R.Sources = {{C.FileName, std::move(Source)}};
  R.Procs = C.Procs;
  R.Threads = C.HostThreads;
  R.Policy = C.Policy;
  R.Machine = "scaled";
  R.Engine = "bytecode";
  R.ChecksumArrays = C.Arrays;
  return R;
}

serve::ClientOptions clientOptions(int Port, uint64_t Seed) {
  serve::ClientOptions O;
  O.Port = Port;
  O.ReadTimeoutMs = 60000;
  O.JitterSeed = Seed;
  return O;
}

/// \p N requests of the mix: VariantShare of them variants of the last
/// kind, the rest spread evenly over the others, in an order drawn from
/// \p Rng.  Variant tags count up from a seed-drawn base, so no variant
/// repeats within a server's life.
std::vector<Planned> planMix(SplitMix64 &Rng, const std::vector<Cell> &Kinds,
                             size_t N, uint64_t &NextTag) {
  const size_t VariantKind = Kinds.size() - 1;
  const auto Variants =
      static_cast<size_t>(std::lround(static_cast<double>(N) * VariantShare));
  std::vector<Planned> Out(N);
  for (size_t I = 0; I < N; ++I)
    Out[I].Kind = I < Variants ? VariantKind : (I - Variants) % VariantKind;
  for (size_t I = N; I > 1; --I)
    std::swap(Out[I - 1], Out[Rng.nextBelow(I)]);
  for (Planned &P : Out) {
    const Cell &C = Kinds[P.Kind];
    P.Req = makeRequest(C, P.Kind == VariantKind ? variantSource(C, NextTag++)
                                                 : C.Source);
  }
  return Out;
}

/// One set-up: the programs compiled locally layer by layer (for the
/// compile breakdown), a fresh server started, and one warm-up request
/// per program (the server compiles it) checked against the oracle.
Error setupOnce(const std::vector<Cell> &Kinds, const Oracle &O, Tracer *T,
                int Rep, std::unique_ptr<serve::Server> &Srv) {
  ScopedSpan Root(T, "setup", static_cast<uint64_t>(Rep));
  SessionOptions SO;
  SO.Workers = 1;
  Session S(SO);
  for (const Cell &C : Kinds)
    if (auto P = compileProgram(S, C, T); !P)
      return Error::make(C.Key + ": " + P.error().str());
  {
    ScopedSpan Sp(T, "serve.start");
    serve::ServerOptions SOpts;
    SOpts.Workers = ServeWorkers;
    SOpts.MaxCachedPrograms = CacheBound;
    Srv = std::make_unique<serve::Server>(SOpts);
    if (Error E = Srv->start())
      return E;
  }
  serve::Client Cl(clientOptions(Srv->port(), 1));
  for (const Cell &C : Kinds) {
    ScopedSpan Sp(T, "serve.call");
    auto R = Cl.callWithRetry(makeRequest(C, C.Source));
    if (!R)
      return Error::make(C.Key + ": warm-up failed: " + R.error().str());
    if (R->St != serve::Status::Ok)
      return Error::make(C.Key + ": warm-up failed: " + R->ErrorMsg);
    if (std::string M = mismatch(*O.find(C.Key), *R); !M.empty())
      return Error::make(C.Key + ": warm-up differs from the oracle: " + M);
  }
  return Error::success();
}

void stop(std::unique_ptr<serve::Server> &Srv) {
  if (!Srv)
    return;
  Srv->requestDrain();
  Srv->waitDrained();
  Srv.reset();
}

/// What one request of the window came back with.
struct Done {
  double ProbeMs = 0.0;   ///< probeMs() before the send.
  double LatencyMs = 0.0; ///< Due time to response.
  double LateMs = 0.0;    ///< Due time to send.
  double CallMs = 0.0;    ///< Send to response.
  double QueueMs = 0.0, RunMs = 0.0;
  int Attempts = 0, Sheds = 0;
  bool Ok = false;
  unsigned ThreadedEpochs = 0;
};

} // namespace

int runServe(const RunArgs &A, const Oracle &O, RunOutcome &Out) {
  std::vector<Cell> Kinds = serveHotCells();
  Kinds.push_back(serveVariantBase());
  const size_t VariantKind = Kinds.size() - 1;
  for (const Cell &C : Kinds)
    if (!O.find(C.Key)) {
      std::fprintf(stderr, "perfbench: the oracle has no entry for '%s'\n",
                   C.Key.c_str());
      return 1;
    }
  std::unique_ptr<Tracer> Tr;
  if (A.Trace)
    Tr = std::make_unique<Tracer>(Clock::now());

  std::unique_ptr<serve::Server> Srv;
  std::vector<double> SetupS;
  for (int Rep = 1; moreSetups(SetupS); ++Rep) {
    stop(Srv);
    double Speed = ProbeRefMs / probeMs();
    auto T0 = Clock::now();
    if (Error E = setupOnce(Kinds, O, Tr.get(), Rep, Srv)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", E.str().c_str());
      stop(Srv);
      return 1;
    }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3 * Speed);
  }

  SplitMix64 Rng(hashMix64(A.Seed));
  uint64_t NextTag = Rng.nextBelow(1000000000);
  // Open the window on a full cache: a fixed closed-loop batch, which
  // also measures what the two workers sustain.
  std::vector<Planned> Warm = planMix(Rng, Kinds, CapacityRequests, NextTag);
  // Poisson arrivals at RateRps conditioned on their count: that many
  // uniform times over the window, in order.
  const auto WindowRequests = static_cast<size_t>(
      std::max(1L, std::lround(RateRps * A.Seconds)));
  std::vector<Planned> Plan = planMix(Rng, Kinds, WindowRequests, NextTag);
  std::vector<double> Due(Plan.size());
  for (double &At : Due)
    At = Rng.nextDouble() * A.Seconds * 1e3;
  std::sort(Due.begin(), Due.end());
  for (size_t I = 0; I < Plan.size(); ++I)
    Plan[I].AtMs = Due[I];

  auto Drive = [&](std::vector<Planned> &Reqs, bool OpenLoop,
                   Clock::time_point Start, std::vector<Done> &Results) {
    std::atomic<size_t> Next{0};
    auto Sender = [&](int Conn) {
      serve::Client Cl(clientOptions(Srv->port(), A.Seed * 4 + Conn));
      for (size_t I; (I = Next.fetch_add(1)) < Reqs.size();) {
        const Planned &P = Reqs[I];
        Done &D = Results[I];
        auto Due = Start;
        if (OpenLoop) {
          D.ProbeMs = probeMs();
          Due += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(P.AtMs));
          std::this_thread::sleep_until(Due);
        }
        auto Sent = Clock::now();
        if (!OpenLoop)
          Due = Sent;
        Tracer *T = OpenLoop && Tr && I % 2 == 0 ? Tr.get() : nullptr;
        int32_t Root = T ? T->begin("request", FirstRequestId + I, Due) : -1;
        if (T && Sent > Due)
          T->derived("loadgen.late", Root, Due, Sent);
        int32_t Call = T ? T->begin("serve.call", 0, Sent) : -1;
        serve::CallTrace CT;
        auto Resp = Cl.callWithRetry(P.Req, &CT);
        auto End = Clock::now();
        D.LatencyMs = msBetween(Due, End);
        D.LateMs = msBetween(Due, Sent);
        D.CallMs = msBetween(Sent, End);
        D.Attempts = CT.Attempts;
        D.Sheds = CT.Sheds;
        std::string Why = !Resp ? Resp.error().str()
                          : Resp->St != serve::Status::Ok
                              ? std::string(serve::statusName(Resp->St)) +
                                    ": " + Resp->ErrorMsg
                              : mismatch(*O.find(Kinds[P.Kind].Key), *Resp);
        D.Ok = Why.empty();
        if (!D.Ok)
          std::fprintf(stderr, "perfbench: request %zu (%s) failed: %s\n", I,
                       P.Req.Label.c_str(), Why.c_str());
        if (Resp && Resp->St == serve::Status::Ok) {
          D.QueueMs = Resp->QueueMs;
          D.RunMs = Resp->HostSeconds * 1e3;
          D.ThreadedEpochs = Resp->ThreadedEpochs;
        }
        if (T) {
          T->end(Call, End);
          if (D.Ok) {
            auto Ms = [](double V) {
              return std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(V));
            };
            // Placed at the end of the call; the response carries only
            // durations.
            T->derived("serve.run", Call, End - Ms(D.RunMs), End);
            T->derived("serve.queue", Call, End - Ms(D.RunMs + D.QueueMs),
                       End - Ms(D.RunMs));
          }
          T->end(Root, End);
        }
      }
    };
    std::vector<std::thread> Threads;
    for (int C = 0; C < Connections; ++C)
      Threads.emplace_back(Sender, C);
    for (std::thread &Th : Threads)
      Th.join();
  };

  std::vector<Done> WarmDone(Warm.size());
  auto CapStart = Clock::now();
  Drive(Warm, false, CapStart, WarmDone);
  double CapacityRps = static_cast<double>(Warm.size()) /
                       (msBetween(CapStart, Clock::now()) / 1e3);

  serve::ServerStats Before = Srv->stats();
  std::vector<Done> Results(Plan.size());
  auto Start = Clock::now();
  Drive(Plan, true, Start, Results);
  double WindowS = msBetween(Start, Clock::now()) / 1e3;
  serve::ServerStats After = Srv->stats();
  stop(Srv);

  for (const Done &D : WarmDone)
    if (!D.Ok)
      Out.Correct = false;
  std::vector<double> Latency, RawLatency, Probe, Late, TracedLat, BareLat,
      Queue, Run, Outside, NsPerAccess;
  SimTally Tally;
  std::vector<std::vector<double>> OkLatencyByKind(Kinds.size());
  uint64_t Attempts = 0, Retries = 0, Sheds = 0, LateSends = 0, Variants = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    const Done &D = Results[I];
    const Expect &Want = *O.find(Kinds[Plan[I].Kind].Key);
    bool Traced = Tr && I % 2 == 0;
    ++Out.Attempted;
    double Scaled = D.LatencyMs * ProbeRefMs / D.ProbeMs;
    Latency.push_back(Scaled);
    RawLatency.push_back(D.LatencyMs);
    Probe.push_back(D.ProbeMs);
    Late.push_back(D.LateMs);
    LateSends += D.LateMs > LateMs;
    Variants += Plan[I].Kind == VariantKind;
    (Traced ? TracedLat : BareLat).push_back(D.LatencyMs);
    Attempts += static_cast<uint64_t>(D.Attempts);
    Retries += static_cast<uint64_t>(std::max(0, D.Attempts - 1));
    Sheds += static_cast<uint64_t>(D.Sheds);
    if (!D.Ok) {
      ++Out.Failed;
      continue;
    }
    OkLatencyByKind[Plan[I].Kind].push_back(Scaled);
    if (!Traced)
      continue;
    Queue.push_back(D.QueueMs);
    Run.push_back(D.RunMs);
    Outside.push_back(D.CallMs - D.QueueMs - D.RunMs);
    if (Want.accesses())
      NsPerAccess.push_back(D.RunMs * 1e6 /
                            static_cast<double>(Want.accesses()));
    Tally.add(Want, D.ThreadedEpochs);
  }
  Out.Correct = Out.Correct && Out.Failed == 0 && Out.Attempted > 0;
  double N = static_cast<double>(std::max<uint64_t>(1, Out.Attempted));

  auto &E = Out.EndToEnd;
  E["setup_s"] = quantile(SetupS, 0.5);
  E["req_ms_p50"] = quantile(Latency, 0.5);
  E["req_ms_p90"] = quantile(Latency, 0.9);
  // Simulated accesses over request latency, each program's (scaled)
  // latency taken as its median over the window, as in the closed loops.
  double Accesses = 0.0, LatencyMs = 0.0;
  for (size_t K = 0; K < Kinds.size(); ++K) {
    double Count = static_cast<double>(OkLatencyByKind[K].size());
    Accesses += Count * static_cast<double>(O.find(Kinds[K].Key)->accesses());
    LatencyMs += Count * quantile(OkLatencyByKind[K], 0.5);
  }
  E["sim_maccess_per_s"] = Accesses / 1e6 / (LatencyMs / 1e3);
  E["peak_rss_mb"] = peakRssMb();
  E["ok_frac"] = static_cast<double>(Out.Attempted - Out.Failed) / N;

  double LateP90 = quantile(Late, 0.9);
  double LateFrac = static_cast<double>(LateSends) / N;
  auto &R = Out.Record;
  R["raw_req_ms_p50"] = quantile(RawLatency, 0.5);
  R["raw_req_ms_p90"] = quantile(RawLatency, 0.9);
  R["probe_ms_p50"] = quantile(Probe, 0.5);
  R["requests"] = static_cast<double>(Out.Attempted);
  R["variants"] = static_cast<double>(Variants);
  R["window_s"] = WindowS;
  R["rate_rps"] = RateRps;
  R["capacity_rps"] = CapacityRps;
  R["late_ms_p90"] = LateP90;
  R["late_frac"] = LateFrac;
  R["queue_peak"] = static_cast<double>(After.QueuePeak);

  if (!Tr)
    return 0;
  auto &L = Out.PerLayer;
  compileMetrics(*Tr, static_cast<int>(SetupS.size()), Kinds.size(), L);
  uint64_t Hits = After.Cache.Hits - Before.Cache.Hits;
  uint64_t Misses = After.Cache.Misses - Before.Cache.Misses;
  L["session.cache_hit_frac"] =
      static_cast<double>(Hits) /
      static_cast<double>(std::max<uint64_t>(1, Hits + Misses));
  L["session.evictions"] =
      static_cast<double>(After.Cache.Evictions - Before.Cache.Evictions);
  L["serve.queue_ms_p50"] = quantile(Queue, 0.5);
  L["serve.queue_ms_p90"] = quantile(Queue, 0.9);
  L["serve.run_ms_p50"] = quantile(Run, 0.5);
  L["serve.outside_run_ms_p50"] = quantile(Outside, 0.5);
  L["serve.shed_frac"] =
      static_cast<double>(Sheds) /
      static_cast<double>(std::max<uint64_t>(1, Attempts));
  L["serve.retries"] = static_cast<double>(Retries);
  L["serve.errors"] = static_cast<double>(Out.Failed);
  L["exec.run_ms"] = quantile(Run, 0.5);
  L["exec.run_ns_per_access"] = quantile(NsPerAccess, 0.5);
  Tally.emit(L);
  L["loadgen.late_ms_p90"] = LateP90;
  L["loadgen.late_frac"] = LateFrac;
  L["loadgen.capacity_rps"] = CapacityRps;
  L["loadgen.rate_rps"] = RateRps;
  L["trace.overhead_frac"] =
      BareLat.empty() ? 0.0
                      : quantile(TracedLat, 0.5) / quantile(BareLat, 0.5) - 1.0;
  writeTraceFiles(*Tr, A);
  return 0;
}

} // namespace perfbench
