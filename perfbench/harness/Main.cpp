//===- Main.cpp - marion-perfbench entry point -----------------------------==//
//
//   marion-perfbench --workload <batch_cold|daemon_mixed|sched_corpus>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --repo-root <dir> --out-dir <dir> --mariond <path>
//                    [--mid-rps <r> --high-rps <r>] [--tiny]
//
// Prints a host-facts line ("# facts {...}") and, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The same record, with the facts and the first failure notes, is written
// to <out-dir>/result-<workload>-<seed>-t<trace>.json.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr, "marion-perfbench: %s\n", Why);
  std::fprintf(stderr,
               "usage: marion-perfbench --workload <batch_cold|daemon_mixed|"
               "sched_corpus> --seed <n> --seconds <s> --trace <0|1>\n"
               "         --repo-root <dir> --out-dir <dir> --mariond <path>\n"
               "         [--mid-rps <r> --high-rps <r>] [--tiny]\n");
  return 2;
}

std::string jsonString(const std::string &S) {
  return "\"" + obs::jsonEscape(S) + "\"";
}

std::string metricsJson(const RunResult &R) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    Out += First ? "" : ", ";
    Out += jsonString(Name) + ": {\"value\": " + fmtDouble(M.Value) +
           ", \"unit\": " + jsonString(M.Unit) + "}";
    First = false;
  }
  return Out + "}";
}

std::string factsJson(const RunConfig &Cfg, const RunResult &R) {
  std::string Out = "{\"workload\": " + jsonString(Cfg.Workload) +
                    ", \"seed\": " + std::to_string(Cfg.Seed) +
                    ", \"seconds\": " + fmtDouble(Cfg.Seconds) +
                    ", \"trace\": " + (Cfg.Trace ? "1" : "0") +
                    ", \"nproc\": " +
                    std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                    ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + jsonString(__VERSION__);
  if (Cfg.Workload == "daemon_mixed")
    Out += ", \"mid_rps\": " + fmtDouble(Cfg.MidRps) +
           ", \"high_rps\": " + fmtDouble(Cfg.HighRps);
  for (const auto &[Name, V] : R.Facts)
    Out += ", " + jsonString(Name) + ": " + fmtDouble(V);
  return Out + "}";
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  bool HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--tiny") {
      Cfg.Tiny = true;
      continue;
    }
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    if (A == "--workload")
      Cfg.Workload = V;
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace") {
      Cfg.Trace = V == "1";
      HaveTrace = V == "0" || V == "1";
    } else if (A == "--repo-root")
      Cfg.RepoRoot = V;
    else if (A == "--out-dir")
      Cfg.OutDir = V;
    else if (A == "--mariond")
      Cfg.DaemonPath = V;
    else if (A == "--mid-rps")
      Cfg.MidRps = std::strtod(V.c_str(), nullptr);
    else if (A == "--high-rps")
      Cfg.HighRps = std::strtod(V.c_str(), nullptr);
    else
      return usage(("unknown option " + A).c_str());
  }
  if (!HaveTrace || Cfg.Seconds <= 0)
    return usage("--trace must be 0 or 1 and --seconds positive");

  // Point the program at the checkout's machine descriptions and workloads
  // (the daemon inherits these too).
  ::setenv("MARION_MACHINE_DIR", (Cfg.RepoRoot + "/machines").c_str(), 1);
  ::setenv("MARION_WORKLOAD_DIR", (Cfg.RepoRoot + "/workloads").c_str(), 1);

  RunResult R;
  if (Cfg.Workload == "batch_cold")
    R = runBatchCold(Cfg);
  else if (Cfg.Workload == "daemon_mixed")
    R = runDaemonMixed(Cfg);
  else if (Cfg.Workload == "sched_corpus")
    R = runSchedCorpus(Cfg);
  else
    return usage(("unknown workload '" + Cfg.Workload + "'").c_str());

  if (R.Attempted == 0)
    R.fail("no operation was attempted");
  if (!Cfg.Trace)
    R.set("ok_share",
          static_cast<double>(R.Attempted - std::min(R.Failed, R.Attempted)) /
              static_cast<double>(R.Attempted),
          "ratio");
  const auto &Expected = Cfg.Trace ? perLayerMetrics() : endToEndMetrics();
  bool Complete = true;
  for (const auto &[Name, Unit] : Expected) {
    auto It = R.Metrics.find(Name);
    if (It == R.Metrics.end() || It->second.Unit != Unit) {
      std::fprintf(stderr, "marion-perfbench: metric %s missing\n",
                   Name.c_str());
      Complete = false;
    }
  }
  for (const std::string &Note : R.FailureNotes)
    std::fprintf(stderr, "marion-perfbench: FAILED: %s\n", Note.c_str());

  const bool Correct = Complete && R.Failed == 0;
  const std::string Facts = factsJson(Cfg, R);
  const std::string Line =
      std::string("{\"correct\": ") + (Correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(R.Attempted) +
      ", \"failed\": " + std::to_string(R.Failed) +
      ", \"metrics\": " + metricsJson(R) + "}";
  const std::string ResultPath = Cfg.OutDir + "/result-" + Cfg.Workload + "-" +
                                 std::to_string(Cfg.Seed) + "-t" +
                                 (Cfg.Trace ? "1" : "0") + ".json";
  if (std::FILE *F = std::fopen(ResultPath.c_str(), "wb")) {
    std::string Notes = "[";
    for (size_t I = 0; I < R.FailureNotes.size(); ++I)
      Notes += (I ? ", " : "") + jsonString(R.FailureNotes[I]);
    Notes += "]";
    std::string Doc = "{\"facts\": " + Facts + ", \"result\": " + Line +
                      ", \"failures\": " + Notes + "}\n";
    std::fwrite(Doc.data(), 1, Doc.size(), F);
    std::fclose(F);
  }
  std::printf("# facts %s\n%s\n", Facts.c_str(), Line.c_str());
  return 0;
}
