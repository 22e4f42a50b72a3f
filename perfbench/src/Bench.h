//===- perfbench/src/Bench.h - Host-speed benchmark: shared parts -*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark binary's files: the cells a
/// workload runs (one generated program with fixed run options each),
/// the metric sink that becomes the final JSON line, and small timing
/// and statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "numa/MachineConfig.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One distinct request: a generated program and the options it runs
/// with.  Its Key names its entry in the checked-in oracle.
struct Cell {
  std::string Key;
  std::string FileName;
  std::string Source;
  std::string Policy = "first-touch"; ///< Serve-wire policy name.
  int Procs = 1;
  int HostThreads = 1;
  dsm::numa::MachineConfig Machine = dsm::numa::MachineConfig::scaledOrigin();
  std::vector<std::string> Arrays; ///< Checksummed after the run.
};

/// The fixed multiset of cells one round of a closed-loop workload
/// runs (a cell may appear more than once); the seed only orders it.
/// Empty for unknown names.
std::vector<Cell> closedLoopCells(const std::string &Workload);

/// The small programs the open-loop serve workload hits in cache.
std::vector<Cell> serveHotCells();

/// The program whose never-seen variants make the serve workload's
/// compile misses.
Cell serveVariantBase();

/// \p Base's source with an inert, never-repeated declaration added, so
/// the program cache misses and the whole compile pipeline runs, while
/// every simulated result stays that of \p Base.
std::string variantSource(const Cell &Base, uint64_t Tag);

/// Every cell the oracle pins.
std::vector<Cell> allOracleCells();

/// Set-ups per run: at least MinSetupReps, and more until MinSetupSeconds
/// have gone into them (a one-cell workload sets up in ~0.1 s), at most
/// MaxSetupReps.  setup_s is their median.
constexpr size_t MinSetupReps = 3, MaxSetupReps = 15;
constexpr double MinSetupSeconds = 1.5;
inline bool moreSetups(const std::vector<double> &SetupS) {
  double Total = 0.0;
  for (double S : SetupS)
    Total += S;
  return SetupS.size() < MinSetupReps ||
         (Total < MinSetupSeconds && SetupS.size() < MaxSetupReps);
}

/// Linear-interpolated quantile (0 for an empty sample).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// What a workload hands back to main: correctness accounting, its
/// metrics by name (main attaches the units and fills per-layer metrics
/// a workload does not load with 0), and run-record fields printed on
/// the line before the result.
struct RunOutcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> PerLayer;
  std::map<std::string, double> Record;
};

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OraclePath;
  std::string OutDir;
};

class Oracle;

int runInProcess(const RunArgs &A, const Oracle &O, RunOutcome &Out);
int runServe(const RunArgs &A, const Oracle &O, RunOutcome &Out);

/// Peak resident set of this process, in MB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
