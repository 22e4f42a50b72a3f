//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "support/Json.h"
#include "support/StringUtils.h"

using namespace dsm;

namespace perfbench {
namespace {
/// This thread's open spans, innermost last.
thread_local std::vector<int32_t> OpenSpans;

uint32_t threadId() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
}
} // namespace

int32_t Tracer::begin(const char *Name, uint64_t Root,
                      Clock::time_point Start) {
  SpanRec S;
  S.Name = Name;
  S.StartNs = ns(Start);
  S.Tid = threadId();
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  std::lock_guard<std::mutex> L(Mu);
  S.Root = Root || S.Parent < 0 ? Root : Spans[S.Parent].Root;
  Spans.push_back(S);
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(int32_t Id, Clock::time_point End) {
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Id].EndNs = ns(End);
}

void Tracer::derived(const char *Name, int32_t Parent,
                     Clock::time_point Start, Clock::time_point End) {
  std::lock_guard<std::mutex> L(Mu);
  SpanRec S;
  S.Name = Name;
  S.StartNs = ns(Start);
  S.EndNs = ns(End);
  S.Parent = Parent;
  S.Root = Spans[Parent].Root;
  S.Tid = Spans[Parent].Tid;
  S.Derived = true;
  Spans.push_back(S);
}

std::map<uint64_t, double> Tracer::msByRoot(const char *Name) const {
  std::lock_guard<std::mutex> L(Mu);
  std::map<uint64_t, double> Out;
  for (const SpanRec &S : Spans)
    if (std::string_view(S.Name) == Name)
      Out[S.Root] += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
  return Out;
}

Error Tracer::writeChrome(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return Error::make("cannot write trace '" + Path + "'");
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"root\": %llu, \"parent\": %d%s}}",
                 I ? ",\n" : "", json::escape(S.Name).c_str(), S.Tid,
                 static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Root), S.Parent,
                 S.Derived ? ", \"derived\": true" : "");
  }
  std::fprintf(F, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(F) == 0 ? Error::success()
                             : Error::make("cannot write trace '" + Path +
                                           "'");
}

std::string Tracer::layerTable() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  struct Row {
    uint64_t Count = 0;
    int64_t TotalNs = 0, SelfNs = 0;
  };
  std::map<std::string, Row> Rows;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    Row &R = Rows[S.Name];
    ++R.Count;
    R.TotalNs += S.EndNs - S.StartNs;
    R.SelfNs += std::max<int64_t>(0, S.EndNs - S.StartNs - ChildNs[I]);
  }
  std::string Out = formatString("%-24s %8s %12s %12s %10s\n", "span",
                                 "count", "total_ms", "self_ms", "mean_ms");
  for (const auto &[Name, R] : Rows)
    Out += formatString("%-24s %8llu %12.3f %12.3f %10.4f\n", Name.c_str(),
                        static_cast<unsigned long long>(R.Count),
                        static_cast<double>(R.TotalNs) / 1e6,
                        static_cast<double>(R.SelfNs) / 1e6,
                        static_cast<double>(R.TotalNs) / 1e6 /
                            static_cast<double>(R.Count));
  return Out;
}

void writeTraceFiles(const Tracer &T, const RunArgs &A) {
  std::error_code EC;
  std::filesystem::create_directories(A.OutDir, EC);
  std::string Base = formatString("%s/%s-seed%llu", A.OutDir.c_str(),
                                  A.Workload.c_str(),
                                  static_cast<unsigned long long>(A.Seed));
  if (Error E = T.writeChrome(Base + ".trace.json"))
    std::fprintf(stderr, "perfbench: %s\n", E.str().c_str());
  std::string Table = T.layerTable();
  std::ofstream(Base + ".layers.txt") << Table;
  std::fprintf(stderr, "%s(trace: %s.trace.json)\n", Table.c_str(),
               Base.c_str());
}

} // namespace perfbench
