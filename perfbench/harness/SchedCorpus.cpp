//===- SchedCorpus.cpp - Re-scheduling the committed .mdag corpus ----------==//
//
// The scheduler-core throughput mode: every DAG of workloads/dags/ goes
// through dagio::parseDag, the fingerprint check, dagio::verifyDag, a
// sched::CodeDAG build and sched::computeSchedule under the four standard
// variants (postpass, ips-prepass, rase-tight, source-order). Each pass
// visits the corpus in a seeded order; every pass's totals must equal the
// committed corpus.* rows of BENCH_schedule_quality.json. Outside the
// timed region every schedule is re-checked with sched::verifySchedule.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "dagio/Corpus.h"
#include "driver/Compiler.h"

#include <algorithm>
#include <set>

namespace perfbench {

namespace {

using Totals = std::map<std::pair<std::string, std::string>,
                        dagio::VariantTotals>;

/// Smallest allocable register count over the banks \p Fn uses: the RASE
/// probe's limit derivation, as in dagio's corpus sweep.
int minAllocableCount(const target::MFunction &Fn,
                      const target::TargetInfo &Target) {
  int Min = -1;
  std::vector<bool> BankUsed(Target.description().Banks.size(), false);
  for (const target::PseudoInfo &P : Fn.Pseudos)
    if (P.Bank >= 0 && P.Bank < static_cast<int>(BankUsed.size()))
      BankUsed[P.Bank] = true;
  const target::RuntimeModel &Rt = Target.runtime();
  for (size_t B = 0; B < BankUsed.size(); ++B) {
    if (!BankUsed[B] || B >= Rt.AllocablePerBank.size())
      continue;
    int Count = static_cast<int>(Rt.AllocablePerBank[B].size());
    if (Count > 0)
      Min = Min < 0 ? Count : std::min(Min, Count);
  }
  return Min;
}

sched::SchedulerOptions optionsFor(const dagio::SchedVariant &V,
                                   const target::MFunction &Fn,
                                   const target::TargetInfo &Target) {
  sched::SchedulerOptions SO = V.Opts;
  if (V.RaseTightLimit)
    SO.RegisterLimit = std::max(2, minAllocableCount(Fn, Target) / 2);
  return SO;
}

/// Reads the committed corpus.<machine>.<variant>.* rows.
bool committedTotals(const std::string &Path, Totals &Out, int64_t &Dags) {
  std::string Text;
  if (!slurp(Path, Text))
    return false;
  size_t Pos = 0;
  while ((Pos = Text.find("\"corpus.", Pos)) != std::string::npos) {
    size_t End = Text.find('"', Pos + 1);
    size_t Colon = Text.find(':', End);
    if (End == std::string::npos || Colon == std::string::npos)
      return false;
    const std::string Key = Text.substr(Pos + 8, End - Pos - 8);
    const int64_t V = std::strtoll(Text.c_str() + Colon + 1, nullptr, 10);
    Pos = End;
    if (Key == "dags") {
      Dags = V;
      continue;
    }
    // <machine>.<variant>.<field>; variant names contain '-' but no '.'.
    size_t D1 = Key.find('.'), D2 = Key.rfind('.');
    if (D1 == std::string::npos || D1 == D2)
      continue;
    dagio::VariantTotals &T =
        Out[{Key.substr(0, D1), Key.substr(D1 + 1, D2 - D1 - 1)}];
    const std::string Field = Key.substr(D2 + 1);
    if (Field == "dags")
      T.Dags = V;
    else if (Field == "schedule_cycles")
      T.Cycles = V;
    else if (Field == "stall_cycles")
      T.StallCycles = V;
    else if (Field == "issue_cycles")
      T.IssueCycles = V;
    else if (Field == "deadlocked")
      T.Deadlocked = V;
  }
  return !Out.empty();
}

struct LayerMicros {
  double Parse = 0, Verify = 0, Build = 0;
  std::vector<double> Schedule; ///< Per variant.
  uint64_t Dags = 0;
};

class CorpusRunner {
public:
  CorpusRunner(const RunConfig &Cfg, RunResult &R,
               std::vector<std::pair<std::string, std::string>> Files,
               std::map<std::string, std::shared_ptr<const target::TargetInfo>>
                   Targets,
               Totals Expected)
      : R(R), Files(std::move(Files)), Targets(std::move(Targets)),
        Expected(std::move(Expected)), Variants(dagio::standardVariants()),
        Rng(mix64(Cfg.Seed ^ 0x5c4ed0c0)) {
    Layers.Schedule.assign(Variants.size(), 0);
  }

  /// Parses, verifies, builds and schedules one DAG under every variant,
  /// folding the schedules into \p Pass. Returns the DAG's latency in ms,
  /// or a negative value when it was rejected.
  double scheduleOne(size_t Index, Totals &Pass) {
    const auto &[Name, Text] = Files[Index];
    Clock::time_point T0 = Clock::now();
    dagio::DagFile F;
    std::string Error;
    bool Ok;
    {
      LayerSpan S("dagio", "dagio::parseDag");
      Ok = dagio::parseDag(Text, F, Error);
    }
    Clock::time_point T1 = Clock::now();
    auto It = Targets.find(F.Machine);
    if (Ok && (It == Targets.end() || !dagio::fingerprintMatches(F, *It->second))) {
      Ok = false;
      Error = "unknown machine or stale fingerprint";
    }
    if (Ok) {
      LayerSpan S("dagio", "dagio::verifyDag");
      Ok = dagio::verifyDag(F, *It->second, Error);
    }
    ++R.Attempted;
    if (!Ok) {
      R.fail(Name + ": rejected: " + Error);
      return -1;
    }
    Clock::time_point T2 = Clock::now();
    const target::TargetInfo &Target = *It->second;
    target::MFunction Fn;
    {
      LayerSpan S("dagio", "dagio::reconstructFunction");
      Fn = dagio::reconstructFunction(F);
    }
    const target::MBlock &Block = Fn.Blocks[0];
    Clock::time_point T3 = Clock::now();
    {
      LayerSpan S("sched", "sched::CodeDAG");
      sched::CodeDAG Dag(Fn, Block, Target);
      Nodes += Dag.nodes().size();
    }
    Clock::time_point T4 = Clock::now();
    for (size_t V = 0; V < Variants.size(); ++V) {
      Clock::time_point TV = Clock::now();
      sched::BlockSchedule S;
      {
        LayerSpan Sp("sched", "sched::computeSchedule");
        S = sched::computeSchedule(Fn, Block, Target,
                                   optionsFor(Variants[V], Fn, Target));
      }
      Layers.Schedule[V] +=
          std::chrono::duration<double, std::micro>(Clock::now() - TV).count();
      dagio::VariantTotals &Cell = Pass[{F.Machine, Variants[V].Name}];
      ++Cell.Dags;
      if (S.Deadlocked) {
        ++Cell.Deadlocked;
        continue;
      }
      const std::set<int> Issue(S.Cycle.begin(), S.Cycle.end());
      const int64_t IssueCycles = static_cast<int64_t>(Issue.size());
      Cell.Cycles += S.EstimatedCycles;
      Cell.IssueCycles += IssueCycles;
      Cell.StallCycles += std::max<int64_t>(0, S.EstimatedCycles - IssueCycles);
    }
    Clock::time_point T5 = Clock::now();
    auto Us = [](Clock::time_point A, Clock::time_point B) {
      return std::chrono::duration<double, std::micro>(B - A).count();
    };
    Layers.Parse += Us(T0, T1);
    Layers.Verify += Us(T1, T2);
    Layers.Build += Us(T3, T4);
    ++Layers.Dags;
    return millisBetween(T0, T5);
  }

  /// Whole corpus passes until \p Seconds elapsed; each pass's totals are
  /// checked against the committed rows.
  void measure(double Seconds, std::vector<double> &Latencies) {
    Clock::time_point T0 = Clock::now();
    do {
      std::vector<size_t> Order(Files.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      shuffleSeeded(Order, Rng);
      Totals Pass;
      std::vector<std::pair<size_t, double>> PassMs;
      for (size_t I : Order) {
        double Ms = scheduleOne(I, Pass);
        if (Ms >= 0) {
          Latencies.push_back(Ms);
          PassMs.push_back({I, Ms});
        }
      }
      // The committed rows cover the whole corpus; the self-test's cut-down
      // corpus has none to compare against.
      ++R.Attempted;
      if (!Expected.empty() && Pass != Expected)
        R.fail("corpus totals differ from the committed corpus.* rows");
      for (const auto &[Key, T] : Pass)
        if (T.Deadlocked)
          R.fail(Key.first + "/" + Key.second + ": deadlocked schedules");
      // After one pass every DAG has been scheduled: the scheduler's peak
      // memory, before the harness's sample buffers (and the calibration's
      // cycle) grow with the run.
      if (Passes == 0) {
        FirstPass = Pass;
        PeakRssMiB = peakRssMiB();
      }
      ++Passes;
      // The calibration right after the pass scales its latencies to the
      // reference host speed.
      const double Cal = memoryCalibrationNsPerStep(1 << 15);
      CalNs.push_back(Cal);
      for (const auto &[I, Ms] : PassMs)
        DagRefLatencies[I].push_back(
            atReferenceSpeed(Ms, Cal, kMemoryReferenceNsPerStep));
    } while (secondsSince(T0) < Seconds);
  }

  /// Re-checks every schedule of one pass with the independent checker.
  void check() {
    for (const auto &[Name, Text] : Files) {
      dagio::DagFile F;
      std::string Error;
      auto It = Targets.end();
      if (dagio::parseDag(Text, F, Error))
        It = Targets.find(F.Machine);
      if (It == Targets.end())
        continue; // Already counted as rejected by the timed loop.
      target::MFunction Fn = dagio::reconstructFunction(F);
      sched::CodeDAG Dag(Fn, Fn.Blocks[0], *It->second);
      for (const dagio::SchedVariant &V : Variants) {
        ++R.Attempted;
        sched::BlockSchedule S = sched::computeSchedule(
            Fn, Fn.Blocks[0], *It->second, optionsFor(V, Fn, *It->second));
        std::vector<std::string> Bad = sched::verifySchedule(Dag, S);
        if (!Bad.empty())
          R.fail(Name + " (" + V.Name + "): " + Bad.front());
      }
    }
  }

  RunResult &R;
  std::vector<std::pair<std::string, std::string>> Files;
  std::map<std::string, std::shared_ptr<const target::TargetInfo>> Targets;
  Totals Expected, FirstPass;
  std::vector<dagio::SchedVariant> Variants;
  uint64_t Rng;
  LayerMicros Layers;
  double PeakRssMiB = 0;
  uint64_t Passes = 0, Nodes = 0;
  /// Host-speed calibration after each pass, in ns per step.
  std::vector<double> CalNs;
  /// Every measured latency of each DAG at the reference host speed, in ms.
  std::map<size_t, std::vector<double>> DagRefLatencies;
};

/// Loads the targets and the corpus text: the workload's set-up.
bool loadCorpus(const RunConfig &Cfg,
                std::map<std::string, std::shared_ptr<const target::TargetInfo>>
                    &Targets,
                std::vector<std::pair<std::string, std::string>> &Files,
                Totals &Expected, int64_t &ExpectedDags) {
  for (const std::string &M : suiteMachines()) {
    DiagnosticEngine D;
    auto T = driver::loadTarget(M, D);
    if (!T)
      return false;
    Targets[M] = T;
  }
  const std::string Dir = Cfg.RepoRoot + "/workloads/dags";
  std::vector<std::string> Names;
  std::string Error;
  if (!dagio::listDagFiles(Dir, Names, Error))
    return false;
  if (Cfg.Tiny && Names.size() > 40)
    Names.resize(40);
  for (const std::string &N : Names) {
    Files.push_back({N, {}});
    if (!slurp(Dir + "/" + N, Files.back().second))
      return false;
  }
  return committedTotals(Cfg.RepoRoot + "/BENCH_schedule_quality.json",
                         Expected, ExpectedDags);
}

} // namespace

RunResult runSchedCorpus(const RunConfig &Cfg) {
  RunResult R;
  auto Setups = inChildren(Cfg.Tiny ? 1 : 9, [&]() -> std::vector<double> {
    Clock::time_point T0 = Clock::now();
    std::map<std::string, std::shared_ptr<const target::TargetInfo>> T;
    std::vector<std::pair<std::string, std::string>> F;
    Totals E;
    int64_t D = 0;
    if (!loadCorpus(Cfg, T, F, E, D))
      return {};
    // Scaled to the reference host speed, like the timed loop.
    const double Seconds = secondsSince(T0);
    return {atReferenceSpeed(Seconds, memoryCalibrationNsPerStep(1 << 14),
                             kMemoryReferenceNsPerStep)};
  });
  std::vector<double> SetupS;
  for (const auto &V : Setups)
    SetupS.push_back(V[0]);

  std::map<std::string, std::shared_ptr<const target::TargetInfo>> Targets;
  std::vector<std::pair<std::string, std::string>> Files;
  Totals Expected;
  int64_t ExpectedDags = 0;
  ++R.Attempted;
  if (SetupS.empty() ||
      !loadCorpus(Cfg, Targets, Files, Expected, ExpectedDags)) {
    R.fail("cannot load the targets, the corpus or the committed totals");
    return R;
  }
  if (!Cfg.Tiny && static_cast<int64_t>(Files.size()) != ExpectedDags)
    R.fail("corpus holds " + std::to_string(Files.size()) +
           " DAGs, the committed rows " + std::to_string(ExpectedDags));

  CorpusRunner C(Cfg, R, std::move(Files), std::move(Targets),
                 Cfg.Tiny ? Totals() : std::move(Expected));
  std::vector<double> Latencies;
  const double Budget = Cfg.Tiny ? 0.01 : Cfg.Seconds;
  auto MsPerDag = [](const std::vector<double> &Lat) {
    double Sum = 0;
    for (double Ms : Lat)
      Sum += Ms;
    return Lat.empty() ? 0.0 : Sum / static_cast<double>(Lat.size());
  };
  if (!Cfg.Trace) {
    C.measure(Budget, Latencies);
  } else {
    std::vector<double> Untraced;
    C.measure(Budget * 0.4, Untraced);
    const double UntracedMs = MsPerDag(Untraced);
    C.Layers = LayerMicros();
    C.Layers.Schedule.assign(C.Variants.size(), 0);
    obs::TraceCollector::instance().enable();
    Clock::time_point W0 = Clock::now();
    {
      LayerSpan Root("other", "sched_corpus.measure");
      C.measure(Budget * 0.6, Latencies);
    }
    const double WallMicros =
        std::chrono::duration<double, std::micro>(Clock::now() - W0).count();
    reportLedger(computeLedger(drainAndWriteTrace(Cfg), WallMicros), R);
    const double TracedMs = MsPerDag(Latencies);
    if (UntracedMs > 0 && TracedMs > 0)
      R.set("trace.overhead", TracedMs / UntracedMs - 1, "ratio");
  }
  C.check();

  double TotalMs = 0;
  for (double Ms : Latencies)
    TotalMs += Ms;
  int64_t Cycles = 0;
  for (const auto &[Key, T] : C.FirstPass)
    Cycles += T.Cycles;
  R.Facts["samples.dags"] = static_cast<double>(Latencies.size());
  R.Facts["samples.passes"] = static_cast<double>(C.Passes);
  R.Facts["samples.setup"] = static_cast<double>(SetupS.size());
  R.Facts["corpus.files"] = static_cast<double>(C.Files.size());

  if (!Cfg.Trace) {
    // Each DAG's time (parse, verify, DAG build and the four schedules)
    // is the 10th percentile of its repeats, each scaled to the reference
    // host speed by the calibration after its pass (see
    // memoryCalibrationNsPerStep), as in batch_cold. The raw all-sample
    // values stay in the facts.
    std::vector<double> DagMs;
    double DagMsTotal = 0;
    for (const auto &[Index, Lat] : C.DagRefLatencies) {
      DagMs.push_back(percentile(Lat, 0.10));
      DagMsTotal += DagMs.back();
    }
    R.Facts["calibration.ns_per_step"] = median(C.CalNs);
    R.set("setup_s", median(SetupS), "s");
    R.set("peak_rss_mb", C.PeakRssMiB, "MiB");
    R.Facts["ops_per_s.raw"] =
        TotalMs > 0 ? Latencies.size() * C.Variants.size() / (TotalMs / 1000)
                    : 0;
    R.set("ops_per_s",
          DagMsTotal > 0 ? DagMs.size() * C.Variants.size() / (DagMsTotal / 1000)
                         : 0,
          "1/s");
    R.set("lat_p50_ms", percentile(DagMs, 0.50), "ms");
    R.set("lat_p90_ms", percentile(DagMs, 0.90), "ms");
    R.Facts["lat_p50_ms.pooled.raw"] = percentile(Latencies, 0.50);
    R.Facts["lat_p90_ms.pooled.raw"] = percentile(Latencies, 0.90);
    R.Facts["lat_p99_ms.raw"] = percentile(Latencies, 0.99);
    R.set("out_cycles", static_cast<double>(Cycles), "cycles");
    R.set("out_instrs",
          C.Passes ? static_cast<double>(C.Nodes / C.Passes * C.Variants.size())
                   : 0,
          "instrs");
    return R;
  }
  const double Dags = C.Layers.Dags ? static_cast<double>(C.Layers.Dags) : 1;
  R.set("dagio.parse_us_per_dag", C.Layers.Parse / Dags, "us");
  R.set("dagio.verify_us_per_dag", C.Layers.Verify / Dags, "us");
  R.set("sched.dag_build_us_per_dag", C.Layers.Build / Dags, "us");
  for (size_t V = 0; V < C.Variants.size(); ++V)
    R.set("sched.schedule_us_per_dag." + C.Variants[V].Name,
          C.Layers.Schedule[V] / Dags, "us");
  fillPerLayerDefaults(R);
  return R;
}

} // namespace perfbench
