//===- perfbench/src/Programs.cpp - Generated workload programs -----------===//
//
// Part of the dsm-dist-repro project.
//
// The paper's Section 8 programs (NAS-LU SSOR kernel, transpose,
// convolution), the redistribution program, and a stream kernel, each
// generated as DSM Fortran source.  The benchmark keeps its own copies
// so that its inputs change only when the benchmark does.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <set>

#include "support/StringUtils.h"

using namespace dsm;

namespace perfbench {
namespace {

enum class Version { FirstTouch, RoundRobin, Regular, Reshaped, Serial };

constexpr Version FourVersions[] = {Version::FirstTouch, Version::RoundRobin,
                                    Version::Regular, Version::Reshaped};

const char *versionName(Version V) {
  switch (V) {
  case Version::FirstTouch:
    return "first-touch";
  case Version::RoundRobin:
    return "round-robin";
  case Version::Regular:
    return "regular";
  case Version::Reshaped:
    return "reshaped";
  case Version::Serial:
    return "serial";
  }
  return "?";
}

/// Paper Section 8.2: serial initialization, then A(j,i) = B(i,j) with
/// A(*,block), B(block,*).
std::string transposeSource(int N, int Reps, Version V) {
  const char *Dist = "";
  const char *Doacross = "";
  switch (V) {
  case Version::FirstTouch:
  case Version::RoundRobin:
    Doacross = "c$doacross local(i,j)\n";
    break;
  case Version::Regular:
    Dist = "c$distribute A(*, block), B(block, *)\n";
    Doacross = "c$doacross local(i,j) affinity(i) = data(A(1, i))\n";
    break;
  case Version::Reshaped:
    Dist = "c$distribute_reshape A(*, block), B(block, *)\n";
    Doacross = "c$doacross local(i,j) affinity(i) = data(A(1, i))\n";
    break;
  case Version::Serial:
    break;
  }
  return formatString(R"(
      program transp
      integer i, j, r, n, reps
      parameter (n = %d, reps = %d)
      real*8 A(n, n), B(n, n)
%s
      do j = 1, n
        do i = 1, n
          B(i,j) = i + 2*j
          A(i,j) = 0.0
        enddo
      enddo
      call dsm_timer_start
      do r = 1, reps
%s      do i = 1, n
        do j = 1, n
          A(j,i) = B(i,j)
        enddo
      enddo
      enddo
      call dsm_timer_stop
      end
)",
                      N, Reps, Dist, Doacross);
}

/// Paper Section 8.1: scaled NAS-LU SSOR kernel, U/V(5,n,n,nz)
/// distributed (*,block,block,*), parallel initialization, one lower
/// and one upper relaxation sweep per iteration.
std::string luSource(int N, int Nz, int Iters, Version V) {
  const char *Dist = "";
  std::string ParU, ParV;
  switch (V) {
  case Version::FirstTouch:
  case Version::RoundRobin:
    ParU = ParV = "c$doacross nest(k,j) local(m,j,k,l)\n";
    break;
  case Version::Regular:
  case Version::Reshaped:
    Dist = V == Version::Regular
               ? "c$distribute U(*, block, block, *), "
                 "V(*, block, block, *)\n"
               : "c$distribute_reshape U(*, block, block, *), "
                 "V(*, block, block, *)\n";
    ParU = "c$doacross nest(k,j) local(m,j,k,l) affinity(k,j) = "
           "data(U(1,j,k,1))\n";
    ParV = "c$doacross nest(k,j) local(m,j,k,l) affinity(k,j) = "
           "data(V(1,j,k,1))\n";
    break;
  case Version::Serial:
    break;
  }
  return formatString(R"(
      program lu
      integer m, j, k, l, it, n, nz, iters
      parameter (n = %d, nz = %d, iters = %d)
      real*8 U(5, n, n, nz), V(5, n, n, nz)
%s
      do l = 1, nz
%s      do k = 1, n
        do j = 1, n
          do m = 1, 5
            U(m,j,k,l) = m + j + 2*k + 3*l
            V(m,j,k,l) = 0.0
          enddo
        enddo
      enddo
      enddo
      call dsm_timer_start
      do it = 1, iters
      do l = 1, nz
%s      do k = 2, n-1
        do j = 2, n-1
          do m = 1, 5
            V(m,j,k,l) = U(m,j,k,l) + 0.25 * (U(m,j-1,k,l) + &
              U(m,j+1,k,l) + U(m,j,k-1,l) + U(m,j,k+1,l))
          enddo
        enddo
      enddo
      enddo
      do l = 1, nz
%s      do k = 2, n-1
        do j = 2, n-1
          do m = 1, 5
            U(m,j,k,l) = V(m,j,k,l) + 0.2 * (V(m,j-1,k,l) + &
              V(m,j+1,k,l) + V(m,j,k-1,l) + V(m,j,k+1,l))
          enddo
        enddo
      enddo
      enddo
      enddo
      call dsm_timer_stop
      end
)",
                      N, Nz, Iters, Dist, ParU.c_str(), ParV.c_str(),
                      ParU.c_str());
}

/// Paper Section 8.3: five-point convolution, parallel over columns,
/// without distribution directives (the round-robin version).
std::string convSource(int N, int Reps) {
  return formatString(R"(
      program conv
      integer i, j, r, n, reps
      parameter (n = %d, reps = %d)
      real*8 A(n, n), B(n, n)
      do j = 1, n
        do i = 1, n
          B(i,j) = i + 3*j
          A(i,j) = 0.0
        enddo
      enddo
      call dsm_timer_start
      do r = 1, reps
c$doacross local(i,j)
      do j = 2, n-1
        do i = 2, n-1
          A(i,j) = (B(i-1,j) + B(i,j-1) + B(i,j) + B(i,j+1) + B(i+1,j)) / 5.0
        enddo
      enddo
      enddo
      call dsm_timer_stop
      end
)",
                      N, Reps);
}

/// The redistribution planner's program (DESIGN.md Section 16): \p
/// Phases (block,*) <-> (*,block) flips with a parallel epoch after
/// each, then onto(\p ShrinkTo) and onto(\p GrowTo), each with an epoch.
std::string redistSource(int N, int Phases, int ShrinkTo, int GrowTo) {
  std::string S = formatString("      program rdb\n"
                               "      integer i, j, n\n"
                               "      parameter (n = %d)\n"
                               "      real*8 A(n,n)\n"
                               "c$distribute A(block,*)\n"
                               "      do j = 1, n\n"
                               "        do i = 1, n\n"
                               "          A(i,j) = i + j * 0.5\n"
                               "        enddo\n"
                               "      enddo\n",
                               N);
  auto Epoch = [&](const char *Scale) {
    S += formatString("c$doacross local(i, j)\n"
                      "      do j = 1, n\n"
                      "        do i = 1, n\n"
                      "          A(i,j) = A(i,j) * %s + 1.0\n"
                      "        enddo\n"
                      "      enddo\n",
                      Scale);
  };
  for (int P = 0; P < Phases; ++P) {
    S += P % 2 == 0 ? "c$redistribute A(*,block)\n"
                    : "c$redistribute A(block,*)\n";
    Epoch(P % 2 == 0 ? "1.25" : "0.75");
  }
  S += formatString("c$redistribute A(block,*) onto(%d)\n", ShrinkTo);
  Epoch("1.5");
  S += formatString("c$redistribute A(*,block) onto(%d)\n", GrowTo);
  Epoch("0.5");
  S += "      end\n";
  return S;
}

/// The dsm_loadgen stream kernel: a reshaped block-distributed sweep.
std::string streamSource(int N) {
  return formatString(R"(
      program stream
      integer i, n
      parameter (n = %d)
      real*8 a(n)
c$distribute_reshape a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i * 0.5
      enddo
      call dsm_timer_start
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = (a(i) + i) / 2.0
      enddo
      call dsm_timer_stop
      end
)",
                      N);
}

Cell makeCell(std::string Key, std::string File, std::string Source,
              Version V, int Procs, std::vector<std::string> Arrays) {
  Cell C;
  C.Key = std::move(Key);
  C.FileName = std::move(File);
  C.Source = std::move(Source);
  C.Policy = V == Version::RoundRobin ? "round-robin" : "first-touch";
  C.Procs = Procs;
  C.Arrays = std::move(Arrays);
  return C;
}

// Sizes: each lu/transpose/redist request takes 0.15-0.2 host seconds
// (RedistLargeN about 0.25) on one core of a 4-core x86 host, long
// enough that per-request noise averages out, short enough for over 100
// requests in a 20-s window.
// Transpose stays large enough that its strided reads miss L2 and the
// TLB (at N=352 its L2 miss share halves).
constexpr int LuN = 40, LuNz = 10;
constexpr int TransposeN = 384;
constexpr int RedistN = 192, RedistLargeN = 256, RedistPhases = 4,
              RedistProcs = 32;

std::vector<Cell> luCells() {
  numa::MachineConfig MC = numa::MachineConfig::scaledOrigin();
  // Figure 4's regime: the dataset spills one node's memory, so even
  // the serial run makes remote references.
  uint64_t DataBytes = 2ull * 5 * LuN * LuN * LuNz * 8;
  MC.NodeMemoryBytes = DataBytes * 3 / 4;
  MC.NodeMemoryBytes -= MC.NodeMemoryBytes % MC.PageSize;
  std::vector<Cell> Cells;
  for (int P : {16, 64})
    for (Version V : FourVersions)
      Cells.push_back(makeCell(formatString("lu/%s/p%d", versionName(V), P),
                               "lu.f", luSource(LuN, LuNz, 1, V), V, P,
                               {"v"}));
  Cells.push_back(makeCell("lu/serial/p1", "lu.f",
                           luSource(LuN, LuNz, 1, Version::Serial),
                           Version::Serial, 1, {"v"}));
  for (Cell &C : Cells)
    C.Machine = MC;
  return Cells;
}

std::vector<Cell> transposeCells() {
  std::vector<Cell> Cells;
  for (int P : {16, 64})
    for (Version V : FourVersions)
      Cells.push_back(makeCell(
          formatString("transpose/%s/p%d", versionName(V), P), "transp.f",
          transposeSource(TransposeN, 1, V), V, P, {"a"}));
  return Cells;
}

/// Four requests at RedistN and one at RedistLargeN, which takes about
/// 1.8 times as long: a single cell's p90 is the tail of its host-time
/// noise (it spread by 18% over ten runs), while in this round the p90
/// falls inside the large cell's own mode.
std::vector<Cell> redistCells() {
  auto Make = [](const char *Key, int N) {
    Cell C = makeCell(Key, "rdb.f", redistSource(N, RedistPhases, 8, 32),
                      Version::FirstTouch, RedistProcs, {"a"});
    C.HostThreads = 2;
    return C;
  };
  Cell Small = Make("redist/threaded/p32", RedistN);
  return {Small, Small, Small, Small,
          Make("redist/threaded/p32/n256", RedistLargeN)};
}

} // namespace

std::vector<Cell> closedLoopCells(const std::string &Workload) {
  if (Workload == "lu_serial")
    return luCells();
  if (Workload == "transpose_fullpath")
    return transposeCells();
  if (Workload == "redist_threaded")
    return redistCells();
  return {};
}

std::vector<Cell> serveHotCells() {
  // One small instance of each paper program, each run taking 2-4 host
  // ms at P=8, so the hits form one latency mode.
  constexpr int P = 8;
  return {
      makeCell("serve/stream", "stream.f", streamSource(8000),
               Version::Reshaped, P, {"a"}),
      makeCell("serve/transpose", "transp.f",
               transposeSource(64, 1, Version::Regular), Version::Regular,
               P, {"a"}),
      makeCell("serve/lu", "lu.f", luSource(10, 2, 1, Version::Reshaped),
               Version::Reshaped, P, {"u"}),
      makeCell("serve/conv", "conv.f", convSource(64, 1),
               Version::RoundRobin, P, {"a"}),
      makeCell("serve/redist", "rdb.f", redistSource(36, 2, 4, 8),
               Version::FirstTouch, P, {"a"}),
  };
}

Cell serveVariantBase() {
  // The largest paper program to compile, at a size whose requests take
  // over three times as long as any hit, so the compile misses form their
  // own latency mode and the p90 of a 4:1 mix falls inside it rather
  // than on the hits' noisy tail.  Its run takes about 13 host ms.
  return makeCell("serve/lu_variant", "lu.f",
                  luSource(14, 5, 1, Version::Reshaped), Version::Reshaped, 8,
                  {"u"});
}

std::string variantSource(const Cell &Base, uint64_t Tag) {
  // An unused named constant after the program statement: a new cache
  // key and a full parse/check/link/transform, no new storage or work.
  std::string S = Base.Source;
  size_t Prog = S.find("program ");
  size_t Eol = Prog == std::string::npos ? 0 : S.find('\n', Prog);
  if (Eol == std::string::npos)
    Eol = 0;
  S.insert(Eol + 1,
           formatString("      integer vtag\n      parameter (vtag = %llu)\n",
                        static_cast<unsigned long long>(Tag % 2000000000)));
  return S;
}

std::vector<Cell> allOracleCells() {
  std::vector<Cell> All;
  std::set<std::string> Keys;
  for (const char *W : {"lu_serial", "transpose_fullpath", "redist_threaded"})
    for (Cell &C : closedLoopCells(W))
      if (Keys.insert(C.Key).second)
        All.push_back(std::move(C));
  for (Cell &C : serveHotCells())
    All.push_back(std::move(C));
  All.push_back(serveVariantBase());
  return All;
}


} // namespace perfbench
