//===- Spans.h - Outside-in layer spans and the layer ledger -----*- C++ -*-==//
//
// The traced run measures each Marion layer from outside: the harness
// wraps a span around its own call into a module's public function, and
// adds child spans for costs the code already reports (pass records, the
// daemon's per-request access log). Every span goes into the process-wide
// obs::TraceCollector under category "bench", carrying its layer, its own
// id and its parent's id (and the request's %REQID for daemon traffic) in
// the event args, so the tree survives the collector and the written
// Chrome trace.
//
// A layer's self time is its spans' durations minus the part covered by
// their child spans. The ledger sums self times per layer; the spans of
// layer "other" (the harness's own wrappers and unattributed residue) are
// the explicit residual, and the total must match an independently clocked
// wall time.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Common.h"
#include "obs/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// RAII span around one call into a layer. A no-op while the collector is
/// disabled (the untraced runs).
class LayerSpan {
public:
  /// \p Parent overrides the thread's innermost open span as the parent
  /// (for spans of a request whose root is recorded later).
  LayerSpan(const char *Layer, const char *What, const std::string &ReqId = {},
            int64_t Parent = -1);
  ~LayerSpan();

  LayerSpan(const LayerSpan &) = delete;
  LayerSpan &operator=(const LayerSpan &) = delete;

  int64_t id() const { return Id; }
  /// Start time on the trace timebase (0 while tracing is off).
  double start() const { return Start; }

private:
  int64_t Id;
  double Start;
  obs::TraceSpan Span;
};

/// A fresh span id (0 while tracing is off), for spans recorded after
/// their children.
int64_t newSpanId();

/// Records a span whose duration was measured elsewhere, as a child of
/// \p Parent, under id \p Id (0 = allocate one). Returns its id (0 while
/// tracing is off).
int64_t recordSpan(const char *Layer, const std::string &What, double TsMicros,
                   double DurMicros, int64_t Parent,
                   const std::string &ReqId = {}, int64_t Id = 0);

/// Records pass records as consecutive child spans of \p Parent starting
/// at \p TsMicros, each attributed to the layer that owns the pass.
/// Returns the summed pass time in microseconds.
struct PassTime {
  std::string Name;
  double Micros = 0;
};
double recordPassSpans(const std::vector<PassTime> &Passes, double TsMicros,
                       int64_t Parent, const std::string &ReqId = {});

/// The Marion layer that owns pipeline pass \p Pass ("glue" -> "select").
/// Cached runs ("<pass>(cached)") belong to "cache".
const char *layerOfPass(const std::string &Pass);

/// Per-layer self times of one traced run.
struct Ledger {
  std::map<std::string, double> SelfMicros; ///< Includes "other".
  double SpanMicros = 0;  ///< Sum of root-span durations.
  double WallMicros = 0;  ///< Independently clocked wall time.
  size_t Spans = 0;

  double totalSelf() const;
  /// |sum of self times - wall| / wall.
  double error() const;
};

/// Builds the ledger from drained collector events (non-"bench" events,
/// the program's own spans, are ignored).
Ledger computeLedger(const std::vector<obs::TraceEvent> &Events,
                     double WallMicros);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
