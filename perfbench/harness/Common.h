//===- Common.h - Shared helpers of the Marion benchmark harness -*- C++ -*-==//
//
// Run configuration, the result record every workload fills, order
// statistics, clocks and process memory probes.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace marion {}

namespace perfbench {

using namespace marion;
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double millisBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// What one invocation was asked to do.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding src/, machines/, workloads/ and BENCH_*.json.
  std::string RepoRoot = ".";
  /// Scratch directory for sockets, logs and the written trace.
  std::string OutDir = ".bench_out";
  /// The mariond binary daemon_mixed spawns.
  std::string DaemonPath;
  /// Shrinks every workload to a smoke-test size (self-test only).
  bool Tiny = false;
  /// daemon_mixed: the two fixed offered rates (set once, in
  /// BENCHMARK.json's command).
  double MidRps = 0;
  double HighRps = 0;
};

/// One named metric value with its unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything a workload run reports. Metrics holds the end-to-end set
/// (untraced run) or the per-layer set (traced run); Facts holds sample
/// counts and other context written next to the result.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  std::map<std::string, double> Facts;
  /// First few failure descriptions, for the log.
  std::vector<std::string> FailureNotes;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void fail(const std::string &Why) {
    ++Failed;
    if (FailureNotes.size() < 20)
      FailureNotes.push_back(Why);
  }
};

/// Nearest-rank percentile of \p V (0 < P <= 1); sorts a copy.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);

/// Peak resident set (VmHWM) of process \p Pid (0 = self), in MiB; 0 when
/// /proc cannot be read.
double peakRssMiB(pid_t Pid = 0);

/// splitmix64: the seed expander behind every generated input.
uint64_t mix64(uint64_t X);

/// Host-speed calibration. Next to the measured work the harness times a
/// fixed loop that shares no code with the program under test, so its
/// duration moves only with the host: clock speed, and the cores, caches
/// and memory bandwidth other tenants take. Reported times are scaled to a
/// reference host on which one step takes the reference time below.
///
/// The memory calibration walks a random cycle through 8 MiB, one
/// dependent load per step: it tracks the in-process compile and schedule
/// loops, whose pass times follow memory latency. The CPU calibration
/// chains mix64 steps: it tracks the daemon's short request latencies.
constexpr double kMemoryReferenceNsPerStep = 120.0;
constexpr double kCpuReferenceNsPerStep = 5.0;

/// Runs \p Steps calibration steps; returns nanoseconds per step. The
/// first memory calibration in a process allocates its 8 MiB cycle.
double memoryCalibrationNsPerStep(uint64_t Steps);
double cpuCalibrationNsPerStep(uint64_t Steps);

/// \p Value, measured beside a calibration of \p NsPerStep, at the
/// reference host speed \p ReferenceNsPerStep.
inline double atReferenceSpeed(double Value, double NsPerStep,
                               double ReferenceNsPerStep) {
  return NsPerStep > 0 ? Value * ReferenceNsPerStep / NsPerStep : Value;
}

/// Reads a whole file; false on error.
bool slurp(const std::string &Path, std::string &Out);

/// Renders \p V with every significant digit (round-trip precision).
std::string fmtDouble(double V);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
