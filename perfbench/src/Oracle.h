//===- perfbench/src/Oracle.h - Pinned request results ----------*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result oracle: for every distinct request the benchmark issues,
/// the simulated cycles, machine counters, redistribution report and
/// checksums the reference interpreter produced.  It is generated once
/// (perfbench --gen-oracle) and checked in; every timed request and
/// every serve response is compared against it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/Engine.h"
#include "serve/Protocol.h"
#include "support/Error.h"

namespace perfbench {

/// What one request must produce.
struct Expect {
  uint64_t WallCycles = 0;
  uint64_t TimedCycles = 0;
  uint64_t RedistributeCycles = 0;
  unsigned ParallelRegions = 0;
  dsm::numa::Counters Counters;
  dsm::runtime::RedistReport Redist;
  std::vector<std::pair<double, double>> Sums; ///< (plain, weighted).

  static Expect of(const dsm::exec::RunResult &R,
                   std::vector<std::pair<double, double>> Sums);

  uint64_t accesses() const { return Counters.Loads + Counters.Stores; }
};

class Oracle {
public:
  dsm::Error load(const std::string &Path);
  dsm::Error save(const std::string &Path) const;

  const Expect *find(const std::string &Key) const {
    auto It = Entries.find(Key);
    return It == Entries.end() ? nullptr : &It->second;
  }
  void set(const std::string &Key, Expect E) { Entries[Key] = std::move(E); }

private:
  std::map<std::string, Expect> Entries;
};

/// Empty when \p Got matches \p Want exactly, else what differs.
std::string mismatch(const Expect &Want, const Expect &Got);

/// The same comparison for a serve response (the wire carries the
/// counters as numa::Counters::str()).
std::string mismatch(const Expect &Want, const dsm::serve::Response &R);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
