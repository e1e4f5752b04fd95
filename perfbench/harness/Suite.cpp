//===- Suite.cpp - Helpers shared by the workloads -------------------------==//

#include "Workloads.h"

#include <cstdio>
#include <cstring>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
      {"ok_share", "ratio"},    {"ops_per_s", "1/s"},
      {"lat_p50_ms", "ms"},     {"lat_p90_ms", "ms"},
      {"out_cycles", "cycles"}, {"out_instrs", "instrs"},
  };
  return M;
}

/// How far the summed self times may stray from the wall time.
constexpr double LedgerTolerance = 0.02;

static const char *const LedgerLayers[] = {
    "frontend", "target", "select", "sched",  "regalloc", "strategy", "cache",
    "service",  "shard",  "dagio",  "sim",    "loadgen",  "other"};

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = [] {
    std::vector<std::pair<std::string, std::string>> V = {
        {"target.build_ms", "ms"},
        {"frontend.parse_ms", "ms"},
        {"select.ms", "ms"},
        {"select.probes_per_node", "probes/node"},
        {"sched.build_dag_ms", "ms"},
        {"sched.prepass_ms", "ms"},
        {"sched.rase_probe_ms", "ms"},
        {"sched.postpass_ms", "ms"},
        {"sched.instrs_scheduled", "count"},
        {"regalloc.allocate_ms", "ms"},
        {"regalloc.spill_rounds", "count"},
        {"strategy.frame_lower_ms", "ms"},
        {"sim.ms", "ms"},
        {"sim.instrs_per_s", "1/s"},
        {"service.queue_ms_p50", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.compile_ms_p50", "ms"},
        {"service.compile_ms_p99", "ms"},
        {"service.backend_ms_p50.edit", "ms"},
        {"wire.ms_p50", "ms"},
        {"cache.hit_ratio", "ratio"},
        {"service.rejected", "count"},
        {"service.max_queue_depth", "count"},
        {"loadgen.late_p99_ms", "ms"},
        {"loadgen.lat_p99_ms.high", "ms"},
        {"loadgen.lat_p50_ms.high", "ms"},
        {"dagio.parse_us_per_dag", "us"},
        {"dagio.verify_us_per_dag", "us"},
        {"sched.dag_build_us_per_dag", "us"},
        {"sched.schedule_us_per_dag.postpass", "us"},
        {"sched.schedule_us_per_dag.ips-prepass", "us"},
        {"sched.schedule_us_per_dag.rase-tight", "us"},
        {"sched.schedule_us_per_dag.source-order", "us"},
    };
    for (const char *L : LedgerLayers)
      V.push_back({std::string("self_share.") + L, "ratio"});
    V.push_back({"ledger.error", "ratio"});
    V.push_back({"trace.overhead", "ratio"});
    return V;
  }();
  return M;
}

std::vector<Cell> suiteCells() {
  using strategy::StrategyKind;
  const std::vector<std::pair<std::string, std::vector<std::string>>> Valid = {
      {"livermore", {"r2000", "i860", "m88000"}},
      {"suite_matmul", {"r2000", "i860", "m88000"}},
      {"suite_queens", {"r2000", "i860", "m88000", "toyp"}},
      {"suite_poly", {"r2000", "i860"}},
  };
  std::vector<Cell> Out;
  for (const auto &[File, Machines] : Valid)
    for (const std::string &M : Machines)
      for (StrategyKind K :
           {StrategyKind::Postpass, StrategyKind::IPS, StrategyKind::RASE})
        Out.push_back({File, M, K});
  return Out;
}

const std::vector<std::string> &suiteMachines() {
  static const std::vector<std::string> M = {"r2000", "i860", "m88000",
                                             "toyp"};
  return M;
}

bool readSuiteSources(const RunConfig &Cfg,
                      std::map<std::string, std::string> &Sources) {
  for (const char *Stem :
       {"livermore", "suite_matmul", "suite_queens", "suite_poly"})
    if (!slurp(Cfg.RepoRoot + "/workloads/" + Stem + ".mc", Sources[Stem]))
      return false;
  return true;
}

uint64_t staticInstrCount(const target::MModule &M) {
  uint64_t N = 0;
  for (const target::MFunction &F : M.Functions)
    for (const target::MBlock &B : F.Blocks)
      N += B.Instrs.size();
  return N;
}

std::vector<std::vector<double>>
inChildren(int K, const std::function<std::vector<double>()> &Body) {
  std::vector<std::vector<double>> Out;
  std::fflush(nullptr);
  for (int I = 0; I < K; ++I) {
    int Fds[2];
    if (::pipe(Fds) != 0)
      continue;
    pid_t Pid = ::fork();
    if (Pid < 0) {
      ::close(Fds[0]);
      ::close(Fds[1]);
      continue;
    }
    if (Pid == 0) {
      ::close(Fds[0]);
      std::vector<double> V = Body();
      const char *P = reinterpret_cast<const char *>(V.data());
      size_t Left = V.size() * sizeof(double);
      while (Left > 0) {
        ssize_t N = ::write(Fds[1], P, Left);
        if (N <= 0)
          ::_exit(1);
        P += N;
        Left -= static_cast<size_t>(N);
      }
      ::_exit(0);
    }
    ::close(Fds[1]);
    std::string Bytes;
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(Fds[0], Buf, sizeof(Buf))) > 0)
      Bytes.append(Buf, static_cast<size_t>(N));
    ::close(Fds[0]);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || Bytes.empty() ||
        Bytes.size() % sizeof(double) != 0)
      continue;
    std::vector<double> V(Bytes.size() / sizeof(double));
    std::memcpy(V.data(), Bytes.data(), Bytes.size());
    Out.push_back(std::move(V));
  }
  return Out;
}

void reportLedger(const Ledger &L, RunResult &R) {
  for (const char *Layer : LedgerLayers) {
    auto It = L.SelfMicros.find(Layer);
    double Self = It == L.SelfMicros.end() ? 0 : It->second;
    R.set(std::string("self_share.") + Layer,
          L.WallMicros > 0 ? Self / L.WallMicros : 0, "ratio");
  }
  R.set("ledger.error", L.error(), "ratio");
  ++R.Attempted;
  if (L.error() > LedgerTolerance)
    R.fail("layer self times miss the wall time by " +
           std::to_string(L.error() * 100) + "%");
  R.Facts["ledger.wall_ms"] = L.WallMicros / 1000;
  R.Facts["ledger.span_ms"] = L.SpanMicros / 1000;
  R.Facts["ledger.spans"] = static_cast<double>(L.Spans);
  for (const auto &[Layer, Micros] : L.SelfMicros)
    R.Facts["ledger.self_ms." + Layer] = Micros / 1000;
}

void fillPerLayerDefaults(RunResult &R) {
  for (const auto &[Name, Unit] : perLayerMetrics())
    if (!R.Metrics.count(Name))
      R.set(Name, 0, Unit);
}

std::vector<obs::TraceEvent> drainAndWriteTrace(const RunConfig &Cfg) {
  std::vector<obs::TraceEvent> Events = obs::TraceCollector::instance().drain();
  obs::TraceCollector::instance().disable();
  obs::TraceFragment F;
  F.Pid = 0;
  F.ProcessName = "perfbench " + Cfg.Workload;
  F.Events = obs::serializeFragment(Events);
  const std::string Path = Cfg.OutDir + "/trace-" + Cfg.Workload + "-" +
                           std::to_string(Cfg.Seed) + ".json";
  if (std::FILE *Out = std::fopen(Path.c_str(), "wb")) {
    std::string Json = obs::assembleTraceJson({F});
    std::fwrite(Json.data(), 1, Json.size(), Out);
    std::fclose(Out);
  }
  return Events;
}

} // namespace perfbench
