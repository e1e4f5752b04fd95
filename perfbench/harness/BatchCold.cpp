//===- BatchCold.cpp - Serial cache-off compiles of the bundled suite ------==//
//
// The paper's Table 3 traffic: every valid (file, machine, strategy) cell
// of the bundled suite compiled in-process, one at a time (Jobs = 1), with
// the compile cache off. Each pass visits the 36 cells in a seeded order;
// the run measures whole passes until the time budget is spent. Outside
// the timed region every compiled module is simulated once and checked
// against the workloads' own self-checks and the stall ledger.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "driver/Compiler.h"
#include "frontend/Frontend.h"
#include "sim/Simulator.h"

#include <cstdio>

namespace perfbench {

namespace {

/// Per-pass totals of the pass records, in microseconds.
struct PassSums {
  std::map<std::string, double> Micros;
  double FrontendMicros = 0;
  uint64_t Files = 0;
  uint64_t Functions = 0;
};

struct CellResult {
  std::optional<driver::Compilation> C;
  uint64_t StaticInstrs = 0;
};

class BatchRunner {
public:
  BatchRunner(const RunConfig &Cfg, RunResult &R,
              const std::map<std::string, std::string> &Sources)
      : R(R), Sources(Sources), Cells(suiteCells()),
        Rng(mix64(Cfg.Seed ^ 0xba7c4c01d)) {}

  /// Compiles one cell; returns the file's compile latency in ms, or a
  /// negative value when the compile failed.
  double compileCell(size_t Index) {
    const Cell &Cl = Cells[Index];
    DiagnosticEngine Diags;
    Diags.setFile(Cl.File + ".mc");
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<il::Module> Mod;
    {
      LayerSpan S("frontend", "frontend::compileSource");
      Mod = frontend::compileSource(Sources.at(Cl.File), Cl.File, Diags);
    }
    Clock::time_point T1 = Clock::now();
    std::optional<driver::Compilation> C;
    if (Mod) {
      driver::CompileOptions O;
      O.Machine = Cl.Machine;
      O.Strategy = Cl.Strategy;
      O.Jobs = 1;
      LayerSpan S("other", "driver::compileModule");
      C = driver::compileModule(*Mod, O, Diags);
      if (C && S.id()) {
        std::vector<PassTime> PT;
        for (const pipeline::PassStats &P : C->Passes) {
          PT.push_back({P.Name, P.Micros});
          if (P.CachedMicros > 0)
            PT.push_back({P.Name + "(cached)", P.CachedMicros});
        }
        recordPassSpans(PT, S.start(), S.id());
      }
    }
    Clock::time_point T2 = Clock::now();
    ++R.Attempted;
    if (!C || !C->allCompiled() || Diags.hasErrors()) {
      R.fail("compile failed: " + Cl.File + " on " + Cl.Machine + "/" +
             strategy::strategyName(Cl.Strategy) + ": " + Diags.str());
      return -1;
    }
    Sums.FrontendMicros += std::chrono::duration<double, std::micro>(T1 - T0).count();
    for (const pipeline::PassStats &P : C->Passes)
      Sums.Micros[P.Name] += P.Micros + P.CachedMicros;
    ++Sums.Files;
    Sums.Functions += C->Module.Functions.size();
    CellFunctions[Index] = C->Module.Functions.size();
    Probes += C->Select.PatternsProbed;
    Nodes += C->Select.NodesMatched;

    // Determinism gate: every repeat of a cell must reproduce the first
    // compile's statistics and code size.
    CellResult &First = FirstResults[Index];
    const uint64_t Instrs = staticInstrCount(C->Module);
    if (!First.C) {
      First.StaticInstrs = Instrs;
      First.C = std::move(C);
    } else if (!(First.C->Stats == C->Stats) || First.StaticInstrs != Instrs) {
      R.fail("nondeterministic compile: " + Cl.File + " on " + Cl.Machine);
      return -1;
    }
    return millisBetween(T0, T2);
  }

  /// Compiles whole passes over the cells until \p Seconds have elapsed.
  /// Returns the loop's wall time in seconds.
  double measure(double Seconds, std::vector<double> &Latencies) {
    Clock::time_point T0 = Clock::now();
    do {
      std::vector<size_t> Order(Cells.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      shuffleSeeded(Order, Rng);
      std::vector<std::pair<size_t, double>> Pass;
      for (size_t I : Order) {
        double Ms = compileCell(I);
        if (Ms >= 0) {
          Latencies.push_back(Ms);
          Pass.push_back({I, Ms});
        }
      }
      // The first pass has compiled every cell: the compiler's peak memory,
      // before the harness's own sample buffers (and the calibration's
      // cycle) grow with the run.
      if (Passes++ == 0)
        PeakRssMiB = peakRssMiB();
      // The calibration right after the pass scales its latencies to the
      // reference host speed.
      const double Cal = memoryCalibrationNsPerStep(1 << 16);
      CalNs.push_back(Cal);
      for (const auto &[I, Ms] : Pass)
        CellRefLatencies[I].push_back(
            atReferenceSpeed(Ms, Cal, kMemoryReferenceNsPerStep));
    } while (secondsSince(T0) < Seconds);
    return secondsSince(T0);
  }

  /// Simulates every cell's first compile once: main must return 1 and the
  /// stall ledger must reconcile.
  void check() {
    double SimMicros = 0;
    uint64_t SimInstrs = 0;
    for (size_t I = 0; I < Cells.size(); ++I) {
      const Cell &Cl = Cells[I];
      CellResult &CR = FirstResults[I];
      ++R.Attempted;
      if (!CR.C) {
        R.fail("no compile to simulate: " + Cl.File + " on " + Cl.Machine);
        continue;
      }
      Clock::time_point T0 = Clock::now();
      sim::SimResult S;
      {
        LayerSpan Span("sim", "sim::runProgram");
        S = sim::runProgram(CR.C->Module, *CR.C->Target, "main");
      }
      SimMicros += std::chrono::duration<double, std::micro>(Clock::now() - T0)
                       .count();
      const std::string Where = Cl.File + " on " + Cl.Machine + "/" +
                                strategy::strategyName(Cl.Strategy);
      if (!S.Ok) {
        R.fail("simulation failed: " + Where + ": " + S.Error);
        continue;
      }
      if (S.IntResult != 1) {
        R.fail("self-check failed: " + Where + " main() = " +
               std::to_string(S.IntResult));
        continue;
      }
      if (S.Stalls.total() != S.Cycles - S.IssueCycles) {
        R.fail("stall ledger does not reconcile: " + Where);
        continue;
      }
      SimCycles += S.Cycles;
      SimInstrs += S.Instructions;
      StaticTotal += CR.StaticInstrs;
      ScheduledInstrs += static_cast<uint64_t>(CR.C->Stats.ScheduledInstrs);
      AllocRounds += CR.C->Stats.AllocatorRounds;
    }
    SimMs = SimMicros / 1000;
    SimInstrsPerS = SimMicros > 0 ? SimInstrs / (SimMicros / 1e6) : 0;
  }

  RunResult &R;
  const std::map<std::string, std::string> &Sources;
  std::vector<Cell> Cells;
  uint64_t Rng;
  std::map<size_t, CellResult> FirstResults;
  /// Every measured compile latency of each cell at the reference host
  /// speed, in ms, and the functions each cell's file holds.
  std::map<size_t, std::vector<double>> CellRefLatencies;
  std::map<size_t, uint64_t> CellFunctions;
  /// Host-speed calibration after each pass, in ns per step.
  std::vector<double> CalNs;
  PassSums Sums;
  double PeakRssMiB = 0;
  uint64_t Passes = 0, Probes = 0, Nodes = 0;
  uint64_t SimCycles = 0, StaticTotal = 0, ScheduledInstrs = 0,
           AllocRounds = 0;
  double SimMs = 0, SimInstrsPerS = 0;
};

} // namespace

RunResult runBatchCold(const RunConfig &Cfg) {
  RunResult R;
  // Set-up from a cold process: build every machine's tables and read the
  // suite, in fresh children so no table is already resident. Each child
  // scales its time to the reference host speed.
  auto Setups = inChildren(Cfg.Tiny ? 1 : 9, [&]() -> std::vector<double> {
    Clock::time_point T0 = Clock::now();
    std::vector<double> V = {0};
    for (const std::string &M : suiteMachines()) {
      Clock::time_point TM = Clock::now();
      DiagnosticEngine D;
      if (!driver::loadTarget(M, D))
        return {};
      V.push_back(millisBetween(TM, Clock::now()));
    }
    std::map<std::string, std::string> Src;
    if (!readSuiteSources(Cfg, Src))
      return {};
    const double Seconds = secondsSince(T0);
    V[0] = atReferenceSpeed(Seconds, memoryCalibrationNsPerStep(1 << 14),
                            kMemoryReferenceNsPerStep);
    return V;
  });
  std::vector<double> SetupS, BuildMs;
  for (const auto &V : Setups) {
    SetupS.push_back(V[0]);
    double Sum = 0;
    for (size_t I = 1; I < V.size(); ++I)
      Sum += V[I];
    BuildMs.push_back(Sum / static_cast<double>(V.size() - 1));
  }
  if (SetupS.empty()) {
    R.fail("set-up failed in every child");
    ++R.Attempted;
    return R;
  }

  std::map<std::string, std::string> Sources;
  if (!readSuiteSources(Cfg, Sources)) {
    R.fail("cannot read the bundled workloads");
    ++R.Attempted;
    return R;
  }
  for (const std::string &M : suiteMachines()) {
    DiagnosticEngine D;
    driver::loadTarget(M, D);
  }

  BatchRunner B(Cfg, R, Sources);
  std::vector<double> Latencies;
  const double Budget = Cfg.Tiny ? 0.01 : Cfg.Seconds;
  double LoopSeconds = 0;
  if (!Cfg.Trace) {
    LoopSeconds = B.measure(Budget, Latencies);
  } else {
    // Untraced then traced halves: the difference in per-function compile
    // time is the tracing overhead; the traced half feeds the ledger.
    auto MsPerFunction = [&](const std::vector<double> &Lat) {
      double Sum = 0;
      for (double Ms : Lat)
        Sum += Ms;
      return B.Sums.Functions ? Sum / static_cast<double>(B.Sums.Functions)
                              : 0.0;
    };
    std::vector<double> Untraced;
    B.measure(Budget * 0.4, Untraced);
    const double UntracedMs = MsPerFunction(Untraced);
    B.Sums = PassSums();
    obs::TraceCollector::instance().enable();
    Clock::time_point W0 = Clock::now();
    {
      LayerSpan Root("other", "batch_cold.measure");
      LoopSeconds = B.measure(Budget * 0.6, Latencies);
    }
    const double WallMicros =
        std::chrono::duration<double, std::micro>(Clock::now() - W0).count();
    std::vector<obs::TraceEvent> Events = drainAndWriteTrace(Cfg);
    reportLedger(computeLedger(Events, WallMicros), R);
    const double TracedMs = MsPerFunction(Latencies);
    if (UntracedMs > 0 && TracedMs > 0)
      R.set("trace.overhead", TracedMs / UntracedMs - 1, "ratio");
  }
  const uint64_t MeasuredFiles = Latencies.size();
  double CompileMs = 0;
  for (double Ms : Latencies)
    CompileMs += Ms;

  B.check();

  R.Facts["samples.files"] = static_cast<double>(MeasuredFiles);
  R.Facts["samples.passes"] = static_cast<double>(B.Passes);
  R.Facts["samples.setup"] = static_cast<double>(SetupS.size());
  R.Facts["loop_seconds"] = LoopSeconds;
  R.Facts["cells"] = static_cast<double>(B.Cells.size());

  if (!Cfg.Trace) {
    // Each cell's compile time is the 10th percentile of its repeats, each
    // scaled to the reference host speed by the calibration after its pass
    // (see memoryCalibrationNsPerStep): other tenants slow a varying share
    // of the repeats, and the fastest tenth reads the cell's own cost
    // through them. The raw all-sample values stay in the facts.
    std::vector<double> CellMs;
    double FunctionsTotal = 0, CellMsTotal = 0;
    for (const auto &[Index, Lat] : B.CellRefLatencies) {
      CellMs.push_back(percentile(Lat, 0.10));
      CellMsTotal += CellMs.back();
      FunctionsTotal += static_cast<double>(B.CellFunctions[Index]);
    }
    R.Facts["calibration.ns_per_step"] = median(B.CalNs);
    R.set("setup_s", median(SetupS), "s");
    R.set("peak_rss_mb", B.PeakRssMiB, "MiB");
    R.Facts["ops_per_s.raw"] =
        CompileMs > 0 ? B.Sums.Functions / (CompileMs / 1000) : 0;
    R.set("ops_per_s", CellMsTotal > 0 ? FunctionsTotal / (CellMsTotal / 1000) : 0,
          "1/s");
    R.set("lat_p50_ms", percentile(CellMs, 0.50), "ms");
    R.set("lat_p90_ms", percentile(CellMs, 0.90), "ms");
    R.Facts["lat_p50_ms.pooled.raw"] = percentile(Latencies, 0.50);
    R.Facts["lat_p90_ms.pooled.raw"] = percentile(Latencies, 0.90);
    R.set("out_cycles", static_cast<double>(B.SimCycles), "cycles");
    R.set("out_instrs", static_cast<double>(B.StaticTotal), "instrs");
    return R;
  }

  const double Files = B.Sums.Files ? static_cast<double>(B.Sums.Files) : 1;
  auto PassMs = [&](std::initializer_list<const char *> Names) {
    double Sum = 0;
    for (const char *N : Names) {
      auto It = B.Sums.Micros.find(N);
      if (It != B.Sums.Micros.end())
        Sum += It->second;
    }
    return Sum / 1000 / Files;
  };
  R.set("target.build_ms", median(BuildMs), "ms");
  R.set("frontend.parse_ms", B.Sums.FrontendMicros / 1000 / Files, "ms");
  R.set("select.ms", PassMs({"glue", "select"}), "ms");
  R.set("select.probes_per_node",
        B.Nodes ? static_cast<double>(B.Probes) / B.Nodes : 0, "probes/node");
  R.set("sched.build_dag_ms", PassMs({"build-dag"}), "ms");
  R.set("sched.prepass_ms", PassMs({"prepass-sched"}), "ms");
  R.set("sched.rase_probe_ms", PassMs({"rase-probe"}), "ms");
  R.set("sched.postpass_ms", PassMs({"postpass-sched"}), "ms");
  R.set("sched.instrs_scheduled", static_cast<double>(B.ScheduledInstrs),
        "count");
  R.set("regalloc.allocate_ms", PassMs({"allocate"}), "ms");
  R.set("regalloc.spill_rounds", static_cast<double>(B.AllocRounds), "count");
  R.set("strategy.frame_lower_ms", PassMs({"frame-lower"}), "ms");
  R.set("sim.ms", B.SimMs, "ms");
  R.set("sim.instrs_per_s", B.SimInstrsPerS, "1/s");
  fillPerLayerDefaults(R);
  return R;
}

} // namespace perfbench
