//===- Workloads.h - The three benchmark workloads ----------------*- C++ -*-==//
//
// batch_cold   serial, cache-off, in-process compiles of the bundled suite
// daemon_mixed open-loop warm/edit traffic against a resident mariond
// sched_corpus re-scheduling of the committed .mdag corpus
//
// Each returns the end-to-end metrics (untraced) or the per-layer metrics
// (traced), plus Attempted/Failed from its correctness gates.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Spans.h"

#include "strategy/Strategy.h"
#include "target/MInstr.h"

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

RunResult runBatchCold(const RunConfig &Cfg);
RunResult runDaemonMixed(const RunConfig &Cfg);
RunResult runSchedCorpus(const RunConfig &Cfg);

/// The end-to-end and per-layer metric names every workload prints (a
/// layer a workload never exercises reports 0). Both lists mirror
/// BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// One valid (file, machine, strategy) cell of the bundled suite.
struct Cell {
  std::string File;    ///< Bundled workload stem, e.g. "livermore".
  std::string Machine;
  strategy::StrategyKind Strategy;
};

/// The 36 valid cells: livermore and matmul on r2000/i860/m88000, queens on
/// all four machines, poly on r2000/i860, each under the three strategies.
std::vector<Cell> suiteCells();

/// The machines the suite uses, in a fixed order.
const std::vector<std::string> &suiteMachines();

/// Reads workloads/<stem>.mc for every suite file into \p Sources (keyed
/// by stem). False on a missing file.
bool readSuiteSources(const RunConfig &Cfg,
                      std::map<std::string, std::string> &Sources);

/// Machine instructions in every block of \p M: the emitted code size.
uint64_t staticInstrCount(const target::MModule &M);

/// Runs \p Body in \p K forked children, one after another, and returns
/// the vectors they reported. A child that fails reports nothing, which
/// the caller counts. Used to time set-up from a cold process state.
std::vector<std::vector<double>>
inChildren(int K, const std::function<std::vector<double>()> &Body);

/// Sets the layer self-time shares, ledger error and the other layer
/// metrics every traced run reports from \p L.
void reportLedger(const Ledger &L, RunResult &R);

/// Fills every per-layer metric the workload did not set with 0.
void fillPerLayerDefaults(RunResult &R);

/// Drains the collector and writes the Chrome trace under Cfg.OutDir.
std::vector<obs::TraceEvent> drainAndWriteTrace(const RunConfig &Cfg);

/// Deterministic Fisher-Yates shuffle driven by mix64.
template <typename T> void shuffleSeeded(std::vector<T> &V, uint64_t &State) {
  for (size_t I = V.size(); I > 1; --I) {
    State = mix64(State);
    std::swap(V[I - 1], V[State % I]);
  }
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
