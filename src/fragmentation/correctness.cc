#include "fragmentation/correctness.h"

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "fragmentation/algebra.h"
#include "fragmentation/fragmenter.h"
#include "fragmentation/origins.h"
#include "fragmentation/reconstruct.h"
#include "xml/compare.h"

namespace partix::frag {

using xml::DocumentPtr;
using xml::NodeId;

std::string CorrectnessReport::Summary() const {
  std::string out = "complete=";
  out += complete ? "yes" : "NO";
  out += " disjoint=";
  out += disjoint ? "yes" : "NO";
  out += " reconstructible=";
  out += reconstructible ? "yes" : "NO";
  if (!violations.empty()) {
    out += " (" + std::to_string(violations.size()) + " violations)";
  }
  return out;
}

namespace {

/// Caps the number of recorded violation strings to keep reports readable.
constexpr size_t kMaxViolations = 20;

void AddViolation(CorrectnessReport* report, std::string v) {
  if (report->violations.size() < kMaxViolations) {
    report->violations.push_back(std::move(v));
  }
}

/// Horizontal rules: per document, count matching selection predicates.
void CheckHorizontalRules(const xml::Collection& c,
                          const FragmentationSchema& schema,
                          CorrectnessReport* report) {
  for (const DocumentPtr& doc : c.docs()) {
    int matches = 0;
    for (const FragmentDef& def : schema.fragments) {
      if (def.horizontal().mu.Eval(*doc)) ++matches;
    }
    if (matches == 0) {
      report->complete = false;
      AddViolation(report, "document '" + doc->doc_name() +
                               "' matches no fragment predicate");
    } else if (matches > 1) {
      report->disjoint = false;
      AddViolation(report, "document '" + doc->doc_name() + "' matches " +
                               std::to_string(matches) +
                               " fragment predicates");
    }
  }
}

/// Node-coverage rules for vertical/hybrid designs, using the
/// reconstruction IDs the fragmenter recorded.
void CheckNodeCoverage(const xml::Collection& c,
                       const std::vector<xml::Collection>& fragments,
                       CorrectnessReport* report) {
  // source doc name -> (source node id -> real coverage count)
  std::unordered_map<std::string, std::unordered_map<NodeId, int>> coverage;
  // source doc name -> ids covered by scaffolding (ancestors chains or
  // scaffold-marked nodes)
  std::unordered_map<std::string, std::unordered_set<NodeId>> scaffolded;

  for (const xml::Collection& frag : fragments) {
    for (const DocumentPtr& doc : frag.docs()) {
      // IDs that do not decode fail the reconstruction check below.
      Result<FragmentOrigins> origins = DecodeOrigins(*doc);
      if (!origins.ok() || origins->source.empty()) continue;
      const std::string& source = origins->source;
      for (const auto& [id, name] : origins->ancestors) {
        scaffolded[source].insert(id);
      }
      for (const OriginRun& run : origins->runs) {
        for (uint32_t k = 0; k < run.length; ++k) {
          if (run.scaffold) {
            scaffolded[source].insert(run.first + k);
          } else {
            coverage[source][run.first + k] += 1;
          }
        }
      }
    }
  }

  for (const DocumentPtr& src : c.docs()) {
    const auto& cov = coverage[src->doc_name()];
    const auto& scaf = scaffolded[src->doc_name()];
    src->VisitSubtree(src->root(), [&](NodeId n) {
      auto it = cov.find(n);
      int count = it == cov.end() ? 0 : it->second;
      if (count > 1) {
        report->disjoint = false;
        AddViolation(report,
                     "node " + std::to_string(n) + " (<" +
                         std::string(src->kind(n) == xml::NodeKind::kText
                                         ? "#text"
                                         : src->name(n)) +
                         ">) of '" + src->doc_name() + "' appears in " +
                         std::to_string(count) + " fragments");
      } else if (count == 0 && scaf.count(n) == 0) {
        report->complete = false;
        AddViolation(report,
                     "node " + std::to_string(n) + " (<" +
                         std::string(src->kind(n) == xml::NodeKind::kText
                                         ? "#text"
                                         : src->name(n)) +
                         ">) of '" + src->doc_name() +
                         "' appears in no fragment");
      }
    });
  }
}

}  // namespace

Result<CorrectnessReport> CheckCorrectness(const xml::Collection& c,
                                           const FragmentationSchema& schema) {
  CorrectnessReport report;
  PARTIX_RETURN_IF_ERROR(schema.ValidateStructure());

  if (schema.DominantKind() == FragmentKind::kHorizontal) {
    for (const FragmentDef& def : schema.fragments) {
      if (def.kind() != FragmentKind::kHorizontal) {
        return Status::InvalidArgument(
            "mixed horizontal/non-horizontal designs are not supported");
      }
    }
    CheckHorizontalRules(c, schema, &report);
    // Reconstruction: union of the fragments must equal C as a set of
    // documents.
    PARTIX_ASSIGN_OR_RETURN(std::vector<xml::Collection> fragments,
                            ApplyFragmentation(c, schema));
    Result<xml::Collection> rebuilt =
        ReconstructHorizontal(fragments, c.name());
    if (!rebuilt.ok()) {
      report.reconstructible = false;
      AddViolation(&report, rebuilt.status().ToString());
    } else if (!report.complete) {
      report.reconstructible = false;
    } else {
      // Compare as document sets by name.
      std::map<std::string, DocumentPtr> by_name;
      for (const DocumentPtr& doc : rebuilt->docs()) {
        by_name[doc->doc_name()] = doc;
      }
      for (const DocumentPtr& doc : c.docs()) {
        auto it = by_name.find(doc->doc_name());
        if (it == by_name.end() ||
            !xml::DocumentsEqual(*doc, *it->second)) {
          report.reconstructible = false;
          AddViolation(&report, "document '" + doc->doc_name() +
                                    "' not reproduced by the union");
        }
      }
    }
    return report;
  }

  // Vertical / hybrid: materialize and check node coverage + round-trip.
  PARTIX_ASSIGN_OR_RETURN(std::vector<xml::Collection> fragments,
                          ApplyFragmentation(c, schema));
  CheckNodeCoverage(c, fragments, &report);

  Result<xml::Collection> rebuilt =
      ReconstructVertical(fragments, c.name(), c.docs().empty()
                                                   ? nullptr
                                                   : c.docs()[0]->pool());
  if (!rebuilt.ok()) {
    report.reconstructible = false;
    AddViolation(&report, rebuilt.status().ToString());
    return report;
  }
  std::map<std::string, DocumentPtr> by_name;
  for (const DocumentPtr& doc : rebuilt->docs()) {
    by_name[doc->doc_name()] = doc;
  }
  for (const DocumentPtr& doc : c.docs()) {
    auto it = by_name.find(doc->doc_name());
    if (it == by_name.end()) {
      report.reconstructible = false;
      AddViolation(&report, "document '" + doc->doc_name() +
                                "' missing after reconstruction");
      continue;
    }
    if (!xml::DocumentsEqual(*doc, *it->second)) {
      report.reconstructible = false;
      AddViolation(&report,
                   "document '" + doc->doc_name() + "' differs: " +
                       xml::ExplainDifference(*doc, doc->root(), *it->second,
                                              it->second->root()));
    }
  }
  return report;
}

}  // namespace partix::frag
