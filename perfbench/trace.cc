#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t MsToNs(double ms) { return static_cast<int64_t>(ms * 1e6); }

// Length of the union of `intervals`, each clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// The layer that produced a program span, by the span's name.
std::string LayerOfProgramSpan(const std::string& name) {
  if (name == "query" || name == "compose") return "partix.query_service";
  if (name == "decompose") return "partix.decomposer";
  if (name == "scheduler") return "partix.scheduler";
  if (name == "dispatch" || name == "backoff") return "partix.executor";
  // An attempt is the node's side of a sub-query: driver, engine and the
  // block forwarding into the coordinator's channel.
  if (name == "prepare" || name.rfind("attempt ", 0) == 0) return "engine";
  return "partix.executor";  // fragment@node<i>
}

}  // namespace

int64_t SpanLog::Now() const { return SteadyNanos() - epoch_ns_; }

int SpanLog::Begin(std::string name, std::string layer, int parent,
                   const std::string& query, uint64_t exec) {
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.layer = std::move(layer);
  if (parent >= 0) {
    span.query = spans_[parent].query;
    span.exec = spans_[parent].exec;
  } else {
    span.query = query;
    span.exec = exec;
  }
  span.start_ns = Now();
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::AddGrafted(const partix::telemetry::TraceSpan& span, int parent,
                        int64_t origin_ns) {
  Span out;
  out.parent = parent;
  out.name = span.name;
  out.layer = LayerOfProgramSpan(span.name);
  out.query = spans_[parent].query;
  out.exec = spans_[parent].exec;
  out.start_ns = origin_ns + MsToNs(span.start_ms);
  out.end_ns = out.start_ns + MsToNs(span.duration_ms);
  spans_.push_back(std::move(out));
  const int id = static_cast<int>(spans_.size() - 1);
  for (const partix::telemetry::TraceSpan& child : span.children) {
    AddGrafted(child, id, origin_ns);
  }
  return id;
}

void SpanLog::Graft(int parent, const partix::telemetry::TraceSpan& program) {
  const int64_t host_start = spans_[parent].start_ns;
  const int64_t query_start = std::max(
      host_start, spans_[parent].end_ns - MsToNs(program.duration_ms));
  partix::telemetry::TraceSpan query = program;
  auto admission = std::find_if(
      query.children.begin(), query.children.end(),
      [](const partix::telemetry::TraceSpan& s) {
        return s.name == "scheduler";
      });
  if (admission != query.children.end()) {
    partix::telemetry::TraceSpan wait = std::move(*admission);
    query.children.erase(admission);
    const int64_t wait_ns = MsToNs(wait.duration_ms);
    wait.start_ms = 0.0;
    AddGrafted(wait, parent, std::max(host_start, query_start - wait_ns));
  }
  query.start_ms = 0.0;
  AddGrafted(query, parent, query_start);
}

void SpanLog::Append(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

LayerBreakdown BreakDown(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(n);
  std::vector<int> root(n);
  for (size_t i = 0; i < n; ++i) {
    const int parent = spans[i].parent;
    root[i] = parent < 0 ? static_cast<int>(i) : root[parent];
    if (parent >= 0) {
      child_intervals[parent].emplace_back(spans[i].start_ns,
                                           spans[i].end_ns);
    }
  }
  LayerBreakdown out;
  // Per root and layer, the intervals of that layer's spans.
  std::map<std::pair<int, std::string>,
           std::vector<std::pair<int64_t, int64_t>>>
      layer_intervals;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans[i];
    if (spans[root[i]].layer != kLayerClient) continue;
    if (span.parent >= 0) {
      layer_intervals[{root[i], span.layer}].emplace_back(span.start_ns,
                                                          span.end_ns);
    }
    const int64_t covered =
        CoveredNs(child_intervals[i], span.start_ns, span.end_ns);
    const int64_t duration = span.end_ns - span.start_ns;
    if (span.parent < 0) {
      ++out.executions;
      out.root_wall_ms += static_cast<double>(duration) * 1e-6;
      out.covered_ms += static_cast<double>(covered) * 1e-6;
    } else {
      out.self_ms[span.layer] +=
          static_cast<double>(std::max<int64_t>(0, duration - covered)) *
          1e-6;
    }
  }
  for (auto& [key, intervals] : layer_intervals) {
    const Span& r = spans[key.first];
    out.spanned_ms[key.second] +=
        static_cast<double>(
            CoveredNs(std::move(intervals), r.start_ns, r.end_ns)) *
        1e-6;
  }
  return out;
}

bool WriteJson(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"unit\": \"us since run start\", \"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"layer\": \"%s\", \"query\": \"%s\", \"exec\": %llu, "
                 "\"start\": %.3f, \"end\": %.3f}",
                 i == 0 ? "" : ",\n", i, s.parent,
                 JsonEscape(s.name).c_str(), s.layer.c_str(),
                 JsonEscape(s.query).c_str(),
                 static_cast<unsigned long long>(s.exec),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns) * 1e-3);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
