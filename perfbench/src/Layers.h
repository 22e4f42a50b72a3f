//===- perfbench/src/Layers.h - Calls into the library's layers -*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's only calls into the library's compile and execute
/// layers, each wrapped in a span: a program compiled one layer at a
/// time, and one in-process request issued as the same sequence of
/// calls session::runOne makes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <map>
#include <string>

#include "Bench.h"
#include "Oracle.h"
#include "Trace.h"
#include "api/Dsm.h"

namespace perfbench {

/// Compiles one program three ways, one span per call: through
/// dsm::Session::compile (the handle requests run); again one layer at
/// a time through lang::parseSource, lang::checkModule,
/// link::linkProgram, xform::transformProcedure and
/// link::finalizeProgram (the pipeline behind it, for the per-layer
/// breakdown); and to bytecode with exec::bc::getOrCompile.
dsm::Expected<dsm::ProgramHandle> compileProgram(dsm::Session &S,
                                                 const Cell &C, Tracer *T);

dsm::exec::RunOptions runOptionsFor(const Cell &C,
                                    dsm::exec::RunOptions::EngineKind K);

/// What one in-process request produced.
struct RequestResult {
  Expect Got;
  unsigned ThreadedEpochs = 0;
};

/// One request: MemorySystem and Engine construction, Engine::run, the
/// two checksum calls per array, and teardown, each in its own span
/// under a root span named "request" carrying \p ReqId.
dsm::Expected<RequestResult> runRequest(const dsm::link::Program &Prog,
                                        const Cell &C,
                                        const dsm::exec::RunOptions &Opts,
                                        Tracer *T, uint64_t ReqId);

/// probeMs() on the reference host (4-core x86 VM at 2.0 GHz) in a quiet
/// spell.
constexpr double ProbeRefMs = 2.3;

/// Times a fixed host-only loop (dependent reads and writes over a 2-MB
/// per-thread buffer; no library code) on the calling thread.  The
/// shared host's speed drifts by up to 1.7x between busy and quiet
/// spells, and the probe run just before a request tracks about two
/// thirds of that, so request times are reported scaled by
/// ProbeRefMs / probeMs(): host ms at the reference host's quiet speed.
/// A library change cannot move the probe.
double probeMs();

/// Tallies the simulated results of traced requests into the numa,
/// runtime and exec count metrics: per-request means, and miss and
/// remote shares of all accesses.  Every request of a run's fixed
/// multiset contributes the same integers, so these repeat exactly
/// across runs with one seed.
struct SimTally {
  uint64_t Requests = 0;
  dsm::numa::Counters C;
  uint64_t PagesPlanned = 0, PagesNaive = 0, Rounds = 0, Retries = 0;
  uint64_t ThreadedEpochs = 0, ParallelRegions = 0;

  void add(const Expect &E, unsigned Threaded);
  void emit(std::map<std::string, double> &Out) const;
};

/// The compile-layer metrics (ms per program, median over the setup
/// repetitions whose root ids are 1..\p Reps) from the setup spans.
void compileMetrics(const Tracer &T, int Reps, size_t Programs,
                    std::map<std::string, double> &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
