//===- perfbench/src/Oracle.cpp - Pinned request results ------------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/Json.h"
#include "support/StringUtils.h"

using namespace dsm;

namespace perfbench {
namespace {

/// The pinned integer fields, named as in the oracle file.  One table
/// drives load, save and comparison so they cannot drift apart.
struct Field {
  const char *Name;
  uint64_t (*Get)(const Expect &);
  void (*Set)(Expect &, uint64_t);
};

#define PB_FIELD(NAME, EXPR)                                                   \
  Field{NAME, [](const Expect &E) -> uint64_t { return E.EXPR; },              \
        [](Expect &E, uint64_t V) { E.EXPR = static_cast<decltype(E.EXPR)>(V); }}

const Field Fields[] = {
    PB_FIELD("wall_cycles", WallCycles),
    PB_FIELD("timed_cycles", TimedCycles),
    PB_FIELD("redistribute_cycles", RedistributeCycles),
    PB_FIELD("parallel_regions", ParallelRegions),
    PB_FIELD("loads", Counters.Loads),
    PB_FIELD("stores", Counters.Stores),
    PB_FIELD("l1_misses", Counters.L1Misses),
    PB_FIELD("l2_misses", Counters.L2Misses),
    PB_FIELD("tlb_misses", Counters.TlbMisses),
    PB_FIELD("tlb_miss_cycles", Counters.TlbMissCycles),
    PB_FIELD("local_mem", Counters.LocalMemAccesses),
    PB_FIELD("remote_mem", Counters.RemoteMemAccesses),
    PB_FIELD("mem_stall_cycles", Counters.MemStallCycles),
    PB_FIELD("invalidations", Counters.Invalidations),
    PB_FIELD("dirty_interventions", Counters.DirtyInterventions),
    PB_FIELD("writebacks", Counters.Writebacks),
    PB_FIELD("page_migrations", Counters.PageMigrations),
    PB_FIELD("page_faults", Counters.PageFaults),
    PB_FIELD("redist_cycles", Redist.Cycles),
    PB_FIELD("redist_pages_moved", Redist.PagesMoved),
    PB_FIELD("redist_pages_failed", Redist.PagesFailed),
    PB_FIELD("redist_retries", Redist.Retries),
    PB_FIELD("redist_pages_naive", Redist.NaivePageMoves),
    PB_FIELD("redist_pages_planned", Redist.PlannedPageMoves),
    PB_FIELD("redist_rounds", Redist.Rounds),
    PB_FIELD("redist_peak_scratch", Redist.PeakScratchFrames),
    PB_FIELD("redist_predicted_cycles", Redist.PredictedCycles),
    PB_FIELD("redist_new_procs", Redist.NewProcs),
};
#undef PB_FIELD

/// Checksums are stored as hex floats so they round-trip bit-exactly.
std::string hexDouble(double D) { return formatString("%a", D); }

} // namespace

Expect Expect::of(const exec::RunResult &R,
                  std::vector<std::pair<double, double>> Sums) {
  Expect E;
  E.WallCycles = R.WallCycles;
  E.TimedCycles = R.TimedCycles;
  E.RedistributeCycles = R.RedistributeCycles;
  E.ParallelRegions = R.ParallelRegions;
  E.Counters = R.Counters;
  E.Redist = R.Redist;
  E.Sums = std::move(Sums);
  return E;
}

Error Oracle::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Error::make("cannot read oracle '" + Path + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  auto Doc = json::parse(SS.str());
  if (!Doc)
    return Error::make("oracle '" + Path + "': " + Doc.error().str());
  const json::Value *Cells = Doc->find("cells");
  if (!Cells || !Cells->isObject())
    return Error::make("oracle '" + Path + "' has no \"cells\" object");
  for (const auto &[Key, V] : Cells->members()) {
    Expect E;
    for (const Field &F : Fields) {
      const json::Value *N = V.find(F.Name);
      if (!N || !N->isNumber())
        return Error::make("oracle cell '" + Key + "' lacks " + F.Name);
      F.Set(E, static_cast<uint64_t>(N->asInt()));
    }
    const json::Value *Sums = V.find("checksums");
    if (!Sums || !Sums->isArray())
      return Error::make("oracle cell '" + Key + "' lacks checksums");
    for (const json::Value &Pair : Sums->array()) {
      if (!Pair.isArray() || Pair.array().size() != 2 ||
          !Pair.array()[0].isString() || !Pair.array()[1].isString())
        return Error::make("oracle cell '" + Key +
                           "': checksum is not a [plain, weighted] pair");
      E.Sums.emplace_back(std::strtod(Pair.array()[0].asString().c_str(),
                                      nullptr),
                          std::strtod(Pair.array()[1].asString().c_str(),
                                      nullptr));
    }
    Entries[Key] = std::move(E);
  }
  return Error::success();
}

Error Oracle::save(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return Error::make("cannot write oracle '" + Path + "'");
  std::fprintf(F, "{\"engine\": \"interp\", \"cells\": {");
  bool First = true;
  for (const auto &[Key, E] : Entries) {
    std::fprintf(F, "%s\n  \"%s\": {", First ? "" : ",",
                 json::escape(Key).c_str());
    First = false;
    for (const Field &Fd : Fields)
      std::fprintf(F, "\"%s\": %llu, ", Fd.Name,
                   static_cast<unsigned long long>(Fd.Get(E)));
    std::fprintf(F, "\"checksums\": [");
    for (size_t I = 0; I < E.Sums.size(); ++I)
      std::fprintf(F, "%s[\"%s\", \"%s\"]", I ? ", " : "",
                   hexDouble(E.Sums[I].first).c_str(),
                   hexDouble(E.Sums[I].second).c_str());
    std::fprintf(F, "]}");
  }
  std::fprintf(F, "\n}}\n");
  return std::fclose(F) == 0
             ? Error::success()
             : Error::make("cannot write oracle '" + Path + "'");
}

std::string mismatch(const Expect &Want, const Expect &Got) {
  for (const Field &F : Fields)
    if (F.Get(Want) != F.Get(Got))
      return formatString("%s: want %llu, got %llu", F.Name,
                          static_cast<unsigned long long>(F.Get(Want)),
                          static_cast<unsigned long long>(F.Get(Got)));
  if (Want.Sums != Got.Sums)
    return "checksums differ";
  return "";
}

std::string mismatch(const Expect &Want, const serve::Response &R) {
  Expect Got = Want;
  Got.WallCycles = R.WallCycles;
  Got.TimedCycles = R.TimedCycles;
  Got.RedistributeCycles = R.RedistributeCycles;
  Got.ParallelRegions = R.Epochs;
  Got.Redist.NaivePageMoves = R.RedistPagesNaive;
  Got.Redist.PlannedPageMoves = R.RedistPagesPlanned;
  Got.Redist.Rounds = R.RedistRounds;
  Got.Redist.PeakScratchFrames = R.RedistPeakScratch;
  Got.Redist.NewProcs = R.RedistNewProcs;
  Got.Sums.clear();
  for (const serve::Response::Checksum &C : R.Checksums)
    Got.Sums.emplace_back(C.Sum, C.Weighted);
  if (std::string M = mismatch(Want, Got); !M.empty())
    return M;
  if (R.Counters != Want.Counters.str())
    return "counters: want '" + Want.Counters.str() + "', got '" +
           R.Counters + "'";
  return "";
}

} // namespace perfbench
