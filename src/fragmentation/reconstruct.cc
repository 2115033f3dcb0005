#include "fragmentation/reconstruct.h"

#include <map>

#include "fragmentation/algebra.h"

namespace partix::frag {

Result<xml::Collection> ReconstructHorizontal(
    const std::vector<xml::Collection>& fragments,
    const std::string& result_name) {
  return UnionCollections(fragments, result_name);
}

Result<xml::Collection> ReconstructVertical(
    const std::vector<xml::Collection>& fragments,
    const std::string& result_name, std::shared_ptr<xml::NamePool> pool) {
  if (pool == nullptr) pool = std::make_shared<xml::NamePool>();
  // Group fragment documents by source document name. std::map keeps the
  // output deterministic.
  std::map<std::string, std::vector<JoinInput>> groups;
  xml::SchemaPtr schema;
  std::string root_path;
  xml::RepoKind kind = xml::RepoKind::kMultipleDocuments;
  for (const xml::Collection& frag : fragments) {
    if (schema == nullptr) schema = frag.schema();
    for (const xml::DocumentPtr& doc : frag.docs()) {
      PARTIX_ASSIGN_OR_RETURN(FragmentOrigins origins, DecodeOrigins(*doc));
      if (origins.source.empty()) {
        return Status::FailedPrecondition(
            "fragment document '" + doc->doc_name() +
            "' carries no reconstruction IDs");
      }
      std::vector<JoinInput>& group = groups[origins.source];
      group.push_back(JoinInput{doc, std::move(origins)});
    }
  }
  if (groups.size() == 1) kind = xml::RepoKind::kSingleDocument;
  xml::Collection out(result_name, schema, root_path, kind);
  for (const auto& [source, docs] : groups) {
    PARTIX_ASSIGN_OR_RETURN(xml::DocumentPtr rebuilt,
                            JoinFragments(docs, pool));
    PARTIX_RETURN_IF_ERROR(out.Add(std::move(rebuilt)));
  }
  return out;
}

}  // namespace partix::frag
