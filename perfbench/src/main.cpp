//===- perfbench/src/main.cpp - Host-speed benchmark binary ---------------===//
//
// Part of the dsm-dist-repro project.
//
// Drives the library from one process through each layer's public
// functions and times every call from outside:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --oracle perfbench/oracle.json [--out DIR] [--git-sha SHA]
//   perfbench --gen-oracle perfbench/oracle.json
//
// The last line of standard output is one JSON object: correctness
// accounting plus the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).  The line before it is the run record.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include "Bench.h"
#include "Layers.h"
#include "Oracle.h"
#include "support/Json.h"
#include "support/StringUtils.h"

using namespace dsm;
using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

const MetricSpec EndToEndMetrics[] = {
    {"setup_s", "s"},           {"req_ms_p50", "ms"},
    {"req_ms_p90", "ms"},       {"sim_maccess_per_s", "Maccess/s"},
    {"peak_rss_mb", "MB"},      {"ok_frac", "frac"},
};

const MetricSpec PerLayerMetrics[] = {
    {"session.compile_ms", "ms"},
    {"lang.parse_ms", "ms"},
    {"link.link_ms", "ms"},
    {"xform.transform_ms", "ms"},
    {"exec.bc_compile_ms", "ms"},
    {"session.cache_hit_frac", "frac"},
    {"session.evictions", "count"},
    {"numa.init_ms", "ms"},
    {"exec.init_ms", "ms"},
    {"exec.run_ms", "ms"},
    {"exec.checksum_ms", "ms"},
    {"exec.teardown_ms", "ms"},
    {"exec.run_ns_per_access", "ns"},
    {"numa.accesses", "count"},
    {"numa.l1_miss_frac", "frac"},
    {"numa.l2_miss_frac", "frac"},
    {"numa.tlb_miss_frac", "frac"},
    {"numa.remote_frac", "frac"},
    {"numa.invalidations", "count"},
    {"numa.page_faults", "count"},
    {"numa.migrations", "count"},
    {"runtime.redist_pages_planned", "count"},
    {"runtime.redist_pages_naive", "count"},
    {"runtime.redist_rounds", "count"},
    {"runtime.redist_retries", "count"},
    {"exec.threaded_epochs", "count"},
    {"exec.parallel_regions", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p90", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.outside_run_ms_p50", "ms"},
    {"serve.shed_frac", "frac"},
    {"serve.retries", "count"},
    {"serve.errors", "count"},
    {"loadgen.late_ms_p90", "ms"},
    {"loadgen.late_frac", "frac"},
    {"loadgen.capacity_rps", "1/s"},
    {"loadgen.rate_rps", "1/s"},
    {"trace.overhead_frac", "frac"},
};

const char *const Workloads[] = {"lu_serial", "transpose_fullpath",
                                 "redist_threaded", "serve_openloop"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --oracle FILE [--out DIR] [--git-sha SHA]\n"
               "       perfbench --gen-oracle FILE\n"
               "workloads: lu_serial transpose_fullpath redist_threaded "
               "serve_openloop\n");
  return 2;
}

std::string num(double V) {
  return std::isfinite(V) ? formatString("%.17g", V) : std::string("0");
}

/// Runs every pinned cell on the reference interpreter and writes the
/// oracle file.
int generateOracle(const std::string &Path) {
  Oracle O;
  for (const Cell &C : allOracleCells()) {
    auto Prog = dsm::compile({{C.FileName, C.Source}});
    if (!Prog) {
      std::fprintf(stderr, "%s: %s\n", C.Key.c_str(),
                   Prog.error().str().c_str());
      return 1;
    }
    auto R = runRequest(**Prog, C,
                        runOptionsFor(C, exec::RunOptions::EngineKind::Interp),
                        nullptr, 0);
    if (!R) {
      std::fprintf(stderr, "%s: %s\n", C.Key.c_str(), R.error().str().c_str());
      return 1;
    }
    std::fprintf(stderr, "%-28s wall %llu cycles, %llu accesses\n",
                 C.Key.c_str(),
                 static_cast<unsigned long long>(R->Got.WallCycles),
                 static_cast<unsigned long long>(R->Got.accesses()));
    O.set(C.Key, R->Got);
  }
  if (Error E = O.save(Path)) {
    std::fprintf(stderr, "%s\n", E.str().c_str());
    return 1;
  }
  return 0;
}

std::string loadAvg() {
  double L[3] = {0, 0, 0};
  if (getloadavg(L, 3) != 3)
    return "null";
  return formatString("[%.2f, %.2f, %.2f]", L[0], L[1], L[2]);
}

} // namespace

namespace perfbench {

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

} // namespace perfbench

int main(int argc, char **argv) {
  RunArgs A;
  A.OutDir = ".bench_out";
  std::string GitSha = "unknown", GenOracle, TraceArg = "0";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      char *End = nullptr;
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (Flag == "--seconds") {
      char *End = nullptr;
      A.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0 && A.Seconds <= 600;
    } else if (Flag == "--trace") {
      TraceArg = V;
    } else if (Flag == "--oracle") {
      A.OraclePath = V;
    } else if (Flag == "--out") {
      A.OutDir = V;
    } else if (Flag == "--git-sha") {
      GitSha = V;
    } else if (Flag == "--gen-oracle") {
      GenOracle = V;
    } else {
      return usage();
    }
  }
  if (!GenOracle.empty())
    return generateOracle(GenOracle);

  bool Known = false;
  for (const char *W : Workloads)
    Known |= A.Workload == W;
  if (!HaveWorkload || !Known || !HaveSeed || !HaveSeconds ||
      (TraceArg != "0" && TraceArg != "1") || A.OraclePath.empty())
    return usage();
  A.Trace = TraceArg == "1";

  Oracle O;
  if (Error E = O.load(A.OraclePath)) {
    std::fprintf(stderr, "perfbench: %s\n", E.str().c_str());
    return 1;
  }

  std::string LoadStart = loadAvg();
  RunOutcome Out;
  int RC = A.Workload == "serve_openloop" ? runServe(A, O, Out)
                                           : runInProcess(A, O, Out);
  if (RC != 0)
    return RC;

  std::string Record = formatString(
      "{\"run_record\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %ld, \"loadavg_start\": %s, \"loadavg_end\": %s, "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\"",
      A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
      A.Trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), LoadStart.c_str(),
      loadAvg().c_str(), PERFBENCH_BUILD_TYPE, json::escape(GitSha).c_str());
  for (const auto &[K, V] : Out.Record)
    Record += ", \"" + K + "\": " + num(V);
  std::printf("%s}}\n", Record.c_str());

  std::string Metrics;
  auto Emit = [&](const MetricSpec &M, double V) {
    Metrics += formatString("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                            Metrics.empty() ? "" : ", ", M.Name,
                            num(V).c_str(), M.Unit);
  };
  if (A.Trace) {
    for (const MetricSpec &M : PerLayerMetrics) {
      auto It = Out.PerLayer.find(M.Name);
      Emit(M, It == Out.PerLayer.end() ? 0.0 : It->second);
    }
  } else {
    for (const MetricSpec &M : EndToEndMetrics) {
      auto It = Out.EndToEnd.find(M.Name);
      if (It == Out.EndToEnd.end()) {
        std::fprintf(stderr, "perfbench: %s was not measured\n", M.Name);
        return 1;
      }
      Emit(M, It->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Out.Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Metrics.c_str());
  return 0;
}
