//===- Common.cpp ----------------------------------------------------------==//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

double peakRssMiB(pid_t Pid) {
  std::string Path = Pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(Pid) + "/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

bool slurp(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

namespace {
double nsPerStep(Clock::time_point T0, uint64_t Steps) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count() /
         static_cast<double>(Steps);
}
} // namespace

double cpuCalibrationNsPerStep(uint64_t Steps) {
  static volatile uint64_t Sink = 0;
  Clock::time_point T0 = Clock::now();
  uint64_t X = Sink;
  for (uint64_t I = 0; I < Steps; ++I)
    X = mix64(X);
  Sink = X;
  return nsPerStep(T0, Steps);
}

double memoryCalibrationNsPerStep(uint64_t Steps) {
  // One random cycle through 2 Mi slots (Sattolo's shuffle), so every step
  // is a dependent load from anywhere in 8 MiB.
  static const std::vector<uint32_t> Next = [] {
    const uint32_t N = 1u << 21;
    std::vector<uint32_t> A(N);
    for (uint32_t I = 0; I < N; ++I)
      A[I] = I;
    uint64_t S = 42;
    for (uint32_t I = N - 1; I > 0; --I) {
      S = mix64(S);
      std::swap(A[I], A[S % I]);
    }
    return A;
  }();
  static volatile uint32_t Sink = 0;
  Clock::time_point T0 = Clock::now();
  uint32_t P = Sink;
  for (uint64_t I = 0; I < Steps; ++I)
    P = Next[P];
  Sink = P;
  return nsPerStep(T0, Steps);
}

} // namespace perfbench
