#include "storage/indexes.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace partix::storage {

namespace {

/// Index probe counters, process-wide across every index instance. One
/// probe = one Lookup call; hits additionally count into *_hits_total, so
/// the hit ratio (the planner's pruning effectiveness) is observable.
struct IndexTelemetry {
  telemetry::Counter* element_probes;
  telemetry::Counter* element_hits;
  telemetry::Counter* structural_probes;
  telemetry::Counter* structural_hits;

  static const IndexTelemetry& Get() {
    static const IndexTelemetry t = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      IndexTelemetry out;
      out.element_probes =
          registry.GetCounter("partix_index_element_probes_total");
      out.element_hits =
          registry.GetCounter("partix_index_element_hits_total");
      out.structural_probes =
          registry.GetCounter("partix_structural_index_probes_total");
      out.structural_hits =
          registry.GetCounter("partix_structural_index_hits_total");
      return out;
    }();
    return t;
  }
};

/// Appends `slot` to the posting list for `key` unless it is already the
/// last entry (slots are added in increasing order, so lists stay sorted
/// and deduplicated).
void Append(std::unordered_map<std::string, PostingList>* postings,
            std::string key, DocSlot slot) {
  PostingList& list = (*postings)[std::move(key)];
  if (list.empty() || list.back() != slot) list.push_back(slot);
}

}  // namespace

PostingList IntersectPostings(const PostingList& a, const PostingList& b) {
  PostingList out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

PostingList UnionPostings(const PostingList& a, const PostingList& b) {
  PostingList out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

void ElementIndex::AddDocument(DocSlot slot, const xml::Document& doc) {
  if (doc.empty()) return;
  doc.VisitSubtree(doc.root(), [&](xml::NodeId n) {
    if (doc.kind(n) == xml::NodeKind::kText) return;
    Append(&postings_, std::string(doc.name(n)), slot);
  });
}

const PostingList* ElementIndex::Lookup(std::string_view name) const {
  IndexTelemetry::Get().element_probes->Add();
  auto it = postings_.find(std::string(name));
  if (it == postings_.end()) return nullptr;
  IndexTelemetry::Get().element_hits->Add();
  return &it->second;
}

void StructuralIndex::AddDocument(DocSlot slot, const xml::Document& doc) {
  if (doc.empty()) return;
  // Per-name level envelope for this document, folded into the postings
  // at the end so each name gets at most one entry per slot.
  std::unordered_map<std::string_view, LevelPosting> local;
  auto record = [&](xml::NodeId n, uint32_t level) {
    if (doc.kind(n) == xml::NodeKind::kText) return;
    LevelPosting& p = local[doc.name(n)];
    if (p.count == 0) {
      p.min_level = p.max_level = level;
    } else {
      p.min_level = std::min(p.min_level, level);
      p.max_level = std::max(p.max_level, level);
    }
    ++p.count;
  };
  if (doc.has_labels()) {
    for (xml::NodeId n = 0; n < doc.node_count(); ++n) {
      record(n, doc.label(n).level);
    }
  } else {
    // Transient DFS; stores index at Put() time, before the parse-on-
    // demand copy (which the parser seals) exists.
    std::vector<std::pair<xml::NodeId, uint32_t>> stack{{doc.root(), 1}};
    while (!stack.empty()) {
      auto [n, level] = stack.back();
      stack.pop_back();
      record(n, level);
      for (xml::NodeId c = doc.first_child(n); c != xml::kNullNode;
           c = doc.next_sibling(c)) {
        stack.push_back({c, level + 1});
      }
    }
  }
  for (const auto& [name, p] : local) {
    std::vector<LevelPosting>& list = postings_[std::string(name)];
    if (list.empty() || list.back().slot != slot) {
      LevelPosting entry = p;
      entry.slot = slot;
      list.push_back(entry);
    }
  }
}

const std::vector<StructuralIndex::LevelPosting>* StructuralIndex::Lookup(
    std::string_view name) const {
  IndexTelemetry::Get().structural_probes->Add();
  auto it = postings_.find(std::string(name));
  if (it == postings_.end()) return nullptr;
  IndexTelemetry::Get().structural_hits->Add();
  return &it->second;
}

PostingList StructuralIndex::LookupWithLevel(std::string_view name,
                                             uint32_t level,
                                             bool exact_level) const {
  PostingList out;
  const std::vector<LevelPosting>* list = Lookup(name);
  if (list == nullptr) return out;
  for (const LevelPosting& p : *list) {
    const bool admissible = exact_level
                                ? level >= p.min_level && level <= p.max_level
                                : level <= p.max_level;
    if (admissible) out.push_back(p.slot);
  }
  return out;
}

}  // namespace partix::storage
