#ifndef PARTIX_PERFBENCH_TRACE_H_
#define PARTIX_PERFBENCH_TRACE_H_

// The benchmark's own span log. Spans are recorded around every public
// call the benchmark makes into a layer, and the program's span tree
// (DistributedResult::trace) is grafted underneath them, so one query
// execution reads as a single tree from the client's call down to the
// node-side attempt. Everything stays in memory; WriteJson writes it out
// once the run has ended.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace perfbench {

/// Layer names, as used by the per-layer metric names.
inline constexpr const char* kLayerClient = "client";

struct Span {
  int parent = -1;      // index in the owning log; -1 = root
  std::string name;
  std::string layer;
  std::string query;    // workload query id ("" for set-up spans)
  uint64_t exec = 0;    // execution number within the run (0 = none)
  int64_t start_ns = 0; // relative to the run epoch
  int64_t end_ns = 0;
};

/// Append-only span store for one thread. Not thread-safe: each client
/// thread records into its own log and the logs are merged afterwards.
class SpanLog {
 public:
  explicit SpanLog(int64_t epoch_ns) : epoch_ns_(epoch_ns) {}

  int Begin(std::string name, std::string layer, int parent,
            const std::string& query = "", uint64_t exec = 0);
  void End(int id) { spans_[id].end_ns = Now(); }

  /// Attaches the program's span tree `program` (rooted at its `query`
  /// span) under span `parent`, which must have ended. The program's
  /// times are relative to its own epoch, so the tree is anchored to end
  /// where `parent` ended; whatever of `parent` it does not cover is the
  /// time spent in the call before the program's query began (admission,
  /// call entry). A `scheduler` child — the admission wait, which the
  /// program records at offset 0 although it happened before the query's
  /// epoch — is re-placed just before the query span.
  void Graft(int parent, const partix::telemetry::TraceSpan& program);

  /// Appends every span of `other`, re-basing its parent indexes.
  void Append(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  /// Nanoseconds since the run epoch on the steady clock — the clock the
  /// program's own spans use too.
  int64_t Now() const;
  int AddGrafted(const partix::telemetry::TraceSpan& span, int parent,
                 int64_t origin_ns);

  int64_t epoch_ns_;
  std::vector<Span> spans_;
};

/// Self time per layer over every query execution (spans under a
/// kLayerClient root), and how much of the roots' wall time the layer
/// spans below them cover.
struct LayerBreakdown {
  /// Busy time: each span's duration minus its children's, summed over
  /// executions. Concurrent lanes add up, so a layer can exceed the wall.
  std::map<std::string, double> self_ms;
  /// Wall time during which at least one span of the layer was open.
  std::map<std::string, double> spanned_ms;
  double root_wall_ms = 0.0;  // summed client-span time
  double covered_ms = 0.0;    // part of it under any layer span
  uint64_t executions = 0;
};

LayerBreakdown BreakDown(const std::vector<Span>& spans);

/// Writes the spans as one JSON object to `path`. Returns false when the
/// file cannot be written.
bool WriteJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PARTIX_PERFBENCH_TRACE_H_
