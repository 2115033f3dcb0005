#include "fragmentation/origins.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "common/strings.h"

namespace partix::frag {

namespace {

constexpr char kSourceKey[] = "px-src";
constexpr char kRunsKey[] = "px-runs";
constexpr char kAncestorsKey[] = "px-anc";

/// A whole unsigned decimal number, nothing else.
template <typename T>
bool ParseUnsigned(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

FragmentOrigins OriginsAt(const xml::Document& src, xml::NodeId root) {
  FragmentOrigins out{src.doc_name(), {}, {}};
  for (xml::NodeId a = src.parent(root); a != xml::kNullNode;
       a = src.parent(a)) {
    out.ancestors.emplace_back(a, std::string(src.name(a)));
  }
  std::reverse(out.ancestors.begin(), out.ancestors.end());
  return out;
}

void AddOrigin(xml::NodeId id, bool scaffold, FragmentOrigins* origins) {
  if (!origins->runs.empty()) {
    OriginRun& last = origins->runs.back();
    if (last.scaffold == scaffold &&
        uint64_t{last.first} + last.length == id) {
      ++last.length;
      return;
    }
  }
  origins->runs.push_back(OriginRun{id, 1, scaffold});
}

void AddSubtreeOrigins(const xml::Document& src, xml::NodeId root,
                       const std::function<bool(xml::NodeId)>& skip,
                       FragmentOrigins* origins) {
  if (skip && skip(root)) return;
  AddOrigin(root, /*scaffold=*/false, origins);
  for (xml::NodeId c = src.first_child(root); c != xml::kNullNode;
       c = src.next_sibling(c)) {
    AddSubtreeOrigins(src, c, skip, origins);
  }
}

void EncodeOrigins(const FragmentOrigins& origins, xml::Document* doc) {
  std::string runs;
  for (const OriginRun& run : origins.runs) {
    if (!runs.empty()) runs.push_back(',');
    runs += std::to_string(run.first) + ':' + std::to_string(run.length) +
            (run.scaffold ? ":1" : ":0");
  }
  std::string ancestors;
  for (const auto& [id, name] : origins.ancestors) {
    if (!ancestors.empty()) ancestors.push_back(',');
    ancestors += std::to_string(id) + ':' + name;
  }
  doc->SetMetadata(kSourceKey, origins.source);
  doc->SetMetadata(kRunsKey, std::move(runs));
  doc->SetMetadata(kAncestorsKey, std::move(ancestors));
}

Result<FragmentOrigins> DecodeOrigins(const xml::Document& doc) {
  FragmentOrigins out;
  const std::map<std::string, std::string>& metadata = doc.metadata();
  auto source = metadata.find(kSourceKey);
  if (source == metadata.end()) return out;
  auto corrupt = [&doc](const std::string& what) {
    return Status::Corruption(what + " in the reconstruction IDs of '" +
                              doc.doc_name() + "'");
  };
  auto runs = metadata.find(kRunsKey);
  auto ancestors = metadata.find(kAncestorsKey);
  if (source->second.empty() || runs == metadata.end() ||
      ancestors == metadata.end()) {
    return corrupt("missing key");
  }
  out.source = source->second;
  for (std::string_view entry : SplitSkipEmpty(runs->second, ',')) {
    const std::vector<std::string_view> fields = Split(entry, ':');
    OriginRun run;
    if (fields.size() != 3 || !ParseUnsigned(fields[0], &run.first) ||
        !ParseUnsigned(fields[1], &run.length) ||
        (fields[2] != "0" && fields[2] != "1")) {
      return corrupt("bad run '" + std::string(entry) + "'");
    }
    run.scaffold = fields[2] == "1";
    out.runs.push_back(run);
  }
  for (std::string_view entry : SplitSkipEmpty(ancestors->second, ',')) {
    const size_t colon = entry.find(':');
    xml::NodeId id = 0;
    if (colon == std::string_view::npos || colon + 1 == entry.size() ||
        !ParseUnsigned(entry.substr(0, colon), &id)) {
      return corrupt("bad ancestor '" + std::string(entry) + "'");
    }
    out.ancestors.emplace_back(id, std::string(entry.substr(colon + 1)));
  }
  return out;
}

}  // namespace partix::frag
