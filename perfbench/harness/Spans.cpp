//===- Spans.cpp -----------------------------------------------------------==//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<int64_t> NextId{1};
thread_local std::vector<int64_t> Stack;

int64_t parentOnStack() { return Stack.empty() ? 0 : Stack.back(); }

std::string spanArgs(int64_t Id, int64_t Parent, const char *Layer,
                     const std::string &ReqId) {
  std::string A = "{\"id\": " + std::to_string(Id) +
                  ", \"parent\": " + std::to_string(Parent) +
                  ", \"layer\": \"" + Layer + "\"";
  if (!ReqId.empty())
    A += ", \"reqid\": \"" + obs::jsonEscape(ReqId) + "\"";
  return A + "}";
}

/// Reads the integer or string value following "\"Key\": " in \p Args.
bool argInt(const std::string &Args, const char *Key, int64_t &Out) {
  std::string K = std::string("\"") + Key + "\": ";
  size_t P = Args.find(K);
  if (P == std::string::npos)
    return false;
  Out = std::strtoll(Args.c_str() + P + K.size(), nullptr, 10);
  return true;
}

std::string argString(const std::string &Args, const char *Key) {
  std::string K = std::string("\"") + Key + "\": \"";
  size_t P = Args.find(K);
  if (P == std::string::npos)
    return {};
  size_t B = P + K.size();
  size_t E = Args.find('"', B);
  return E == std::string::npos ? std::string() : Args.substr(B, E - B);
}

} // namespace

LayerSpan::LayerSpan(const char *Layer, const char *What,
                     const std::string &ReqId, int64_t Parent)
    : Id(newSpanId()), Start(Id ? obs::wallMicros() : 0),
      Span("bench", Id ? What : std::string(),
           Id ? spanArgs(Id, Parent >= 0 ? Parent : parentOnStack(), Layer,
                         ReqId)
              : std::string()) {
  if (Id)
    Stack.push_back(Id);
}

LayerSpan::~LayerSpan() {
  if (Id)
    Stack.pop_back();
}

int64_t newSpanId() {
  return obs::traceEnabled() ? NextId.fetch_add(1) : 0;
}

int64_t recordSpan(const char *Layer, const std::string &What, double TsMicros,
                   double DurMicros, int64_t Parent, const std::string &ReqId,
                   int64_t Id) {
  if (!obs::traceEnabled())
    return 0;
  if (Id == 0)
    Id = NextId.fetch_add(1);
  obs::TraceEvent E;
  E.Phase = 'X';
  E.Cat = "bench";
  E.Name = What;
  E.TsMicros = TsMicros;
  E.DurMicros = std::max(0.0, DurMicros);
  E.Args = spanArgs(Id, Parent, Layer, ReqId);
  obs::TraceCollector::instance().record(std::move(E));
  return Id;
}

const char *layerOfPass(const std::string &Pass) {
  if (Pass.find("(cached)") != std::string::npos)
    return "cache";
  if (Pass == "glue" || Pass == "select")
    return "select";
  if (Pass == "allocate")
    return "regalloc";
  if (Pass == "frame-lower")
    return "strategy";
  return "sched"; // build-dag, prepass-sched, rase-probe, postpass-sched
}

double recordPassSpans(const std::vector<PassTime> &Passes, double TsMicros,
                       int64_t Parent, const std::string &ReqId) {
  double Sum = 0;
  for (const PassTime &P : Passes) {
    if (P.Micros <= 0)
      continue;
    recordSpan(layerOfPass(P.Name), "pass:" + P.Name, TsMicros + Sum, P.Micros,
               Parent, ReqId);
    Sum += P.Micros;
  }
  return Sum;
}

double Ledger::totalSelf() const {
  double S = 0;
  for (const auto &[Layer, Micros] : SelfMicros)
    S += Micros;
  return S;
}

double Ledger::error() const {
  return WallMicros > 0 ? std::fabs(totalSelf() - WallMicros) / WallMicros : 1;
}

Ledger computeLedger(const std::vector<obs::TraceEvent> &Events,
                     double WallMicros) {
  struct Node {
    int64_t Parent = 0;
    std::string Layer;
    double Ts = 0, Dur = 0;
    std::vector<size_t> Children;
  };
  std::vector<Node> Nodes;
  std::unordered_map<int64_t, size_t> ById;
  for (const obs::TraceEvent &E : Events) {
    if (std::string(E.Cat) != "bench" || E.Phase != 'X')
      continue;
    int64_t Id = 0;
    Node N;
    if (!argInt(E.Args, "id", Id) || !argInt(E.Args, "parent", N.Parent))
      continue;
    N.Layer = argString(E.Args, "layer");
    N.Ts = E.TsMicros;
    N.Dur = E.DurMicros;
    ById[Id] = Nodes.size();
    Nodes.push_back(std::move(N));
  }
  Ledger L;
  L.WallMicros = WallMicros;
  L.Spans = Nodes.size();
  for (size_t I = 0; I < Nodes.size(); ++I) {
    auto It = ById.find(Nodes[I].Parent);
    if (It != ById.end())
      Nodes[It->second].Children.push_back(I);
    else
      L.SpanMicros += Nodes[I].Dur;
  }
  // Self time: duration minus the union of the children's intervals,
  // clipped to the parent's own interval. A child that overflows its
  // parent loses the overflow, which the wall-time check then exposes.
  for (const Node &N : Nodes) {
    const double B = N.Ts, E = N.Ts + N.Dur;
    std::vector<std::pair<double, double>> Iv;
    for (size_t C : N.Children) {
      double CB = std::max(B, Nodes[C].Ts);
      double CE = std::min(E, Nodes[C].Ts + Nodes[C].Dur);
      if (CE > CB)
        Iv.push_back({CB, CE});
    }
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0, RunB = 0, RunE = -1;
    for (const auto &[CB, CE] : Iv) {
      if (CB > RunE) {
        if (RunE > RunB)
          Covered += RunE - RunB;
        RunB = CB;
        RunE = CE;
      } else {
        RunE = std::max(RunE, CE);
      }
    }
    if (RunE > RunB)
      Covered += RunE - RunB;
    L.SelfMicros[N.Layer] += N.Dur - Covered;
  }
  return L;
}

} // namespace perfbench
