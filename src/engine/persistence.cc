#include "engine/persistence.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/strings.h"
#include "telemetry/metrics.h"
#include "xml/serializer.h"

namespace partix::xdb {

namespace fs = std::filesystem;

namespace {

/// Escapes manifest field separators in metadata values.
std::string EscapeMeta(const std::string& v) {
  std::string out;
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case ';':
        out += "\\s";
        break;
      case '=':
        out += "\\e";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeMeta(std::string_view v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] != '\\' || i + 1 >= v.size()) {
      out += v[i];
      continue;
    }
    ++i;
    switch (v[i]) {
      case '\\':
        out += '\\';
        break;
      case 's':
        out += ';';
        break;
      case 'e':
        out += '=';
        break;
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      default:
        out += v[i];
    }
  }
  return out;
}

/// One parsed STRUCT line.
struct StructEntry {
  uint64_t node_count = 0;
  uint64_t max_level = 0;
  uint64_t checksum = 0;
};

/// Closes `out` after its last write. A stream that failed to open, to
/// write or to flush on close (a full disk) yields an error naming `file`.
Status CloseChecked(std::ofstream* out, const std::string& dir,
                    const std::string& file) {
  out->close();
  if (out->fail()) {
    return Status::Internal("cannot write '" + file + "' in '" + dir + "'");
  }
  return Status::Ok();
}

bool ParseU64(std::string_view s, int base, uint64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out, base);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

uint64_t StructuralLabelChecksum(const xml::Document& doc) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  };
  // Each node contributes its postorder rank and its root path: the
  // 1-based position of every ancestor-or-self among all children of its
  // parent (attributes and text count), root first, the root's being 1.
  // Neither is stored; deriving both keeps the values STRUCT files have
  // always recorded.
  std::vector<uint32_t> ordinal(doc.node_count(), 1);
  for (xml::NodeId n = 0; n < doc.node_count(); ++n) {
    uint32_t k = 0;
    for (xml::NodeId c = doc.first_child(n); c != xml::kNullNode;
         c = doc.next_sibling(c)) {
      ordinal[c] = ++k;
    }
  }
  std::vector<uint32_t> path;  // leaf first
  for (xml::NodeId n = 0; n < doc.node_count(); ++n) {
    const xml::NodeLabel& l = doc.label(n);
    mix(l.pre);
    mix(l.sub_max + 1 - l.level);  // postorder rank
    mix(l.sub_max);
    mix(l.level);
    path.clear();
    for (xml::NodeId a = n; a != xml::kNullNode; a = doc.parent(a)) {
      path.push_back(ordinal[a]);
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) mix(*it);
  }
  return h;
}

Status ExportCollection(Database& db, const std::string& collection,
                        const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory '" + dir +
                            "': " + ec.message());
  }
  if (fs::exists(fs::path(dir) / "MANIFEST")) {
    return Status::AlreadyExists("directory '" + dir +
                                 "' already holds an exported collection");
  }
  PARTIX_ASSIGN_OR_RETURN(std::vector<xml::DocumentPtr> docs,
                          db.AllDocuments(collection));
  std::ofstream manifest(fs::path(dir) / "MANIFEST");
  if (!manifest) {
    return Status::Internal("cannot write MANIFEST in '" + dir + "'");
  }
  std::ofstream structs(fs::path(dir) / "STRUCT");
  if (!structs) {
    return Status::Internal("cannot write STRUCT in '" + dir + "'");
  }
  size_t index = 0;
  for (const xml::DocumentPtr& doc : docs) {
    char file[32];
    std::snprintf(file, sizeof(file), "%06zu.xml", index++);
    std::ofstream out(fs::path(dir) / file);
    out << xml::Serialize(*doc);
    PARTIX_RETURN_IF_ERROR(CloseChecked(&out, dir, file));
    std::string meta_field;
    for (const auto& [key, value] : doc->metadata()) {
      if (!meta_field.empty()) meta_field += ";";
      meta_field += EscapeMeta(key) + "=" + EscapeMeta(value);
    }
    manifest << file << '\t' << doc->doc_name() << '\t' << meta_field
             << '\n';
    if (doc->has_labels() && !doc->empty()) {
      uint32_t max_level = 0;
      for (xml::NodeId n = 0; n < doc->node_count(); ++n) {
        max_level = std::max(max_level, doc->label(n).level);
      }
      char checksum[24];
      std::snprintf(checksum, sizeof(checksum), "%016llx",
                    static_cast<unsigned long long>(
                        StructuralLabelChecksum(*doc)));
      structs << file << '\t' << doc->node_count() << '\t' << max_level
              << '\t' << checksum << '\n';
    }
  }
  PARTIX_RETURN_IF_ERROR(CloseChecked(&manifest, dir, "MANIFEST"));
  return CloseChecked(&structs, dir, "STRUCT");
}

Status ImportCollection(Database& db, const std::string& collection,
                        const std::string& dir, CollectionMeta meta) {
  std::ifstream manifest(fs::path(dir) / "MANIFEST");
  if (!manifest) {
    return Status::NotFound("no MANIFEST in '" + dir + "'");
  }
  if (!db.HasCollection(collection)) {
    PARTIX_RETURN_IF_ERROR(db.CreateCollection(collection, meta));
  }
  // STRUCT (when present) pins the structural labels the exporter saw;
  // entries are keyed by file and checked against the re-parsed documents
  // below. Exports that predate structural labels simply have no STRUCT.
  std::map<std::string, StructEntry> expected_labels;
  {
    std::ifstream structs(fs::path(dir) / "STRUCT");
    std::string sline;
    size_t sline_no = 0;
    while (structs && std::getline(structs, sline)) {
      ++sline_no;
      if (sline.empty()) continue;
      auto sfields = Split(sline, '\t');
      StructEntry entry;
      if (sfields.size() != 4 || !ParseU64(sfields[1], 10, &entry.node_count) ||
          !ParseU64(sfields[2], 10, &entry.max_level) ||
          !ParseU64(sfields[3], 16, &entry.checksum)) {
        return Status::Corruption("bad STRUCT line " +
                                  std::to_string(sline_no) + " in '" + dir +
                                  "'");
      }
      expected_labels[std::string(sfields[0])] = entry;
    }
  }
  // file -> doc name, for matching STRUCT entries after the load.
  std::map<std::string, std::string> doc_names;
  std::string line;
  size_t line_no = 0;
  while (std::getline(manifest, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fields = Split(line, '\t');
    if (fields.size() < 2) {
      return Status::Corruption("bad MANIFEST line " +
                                std::to_string(line_no) + " in '" + dir +
                                "'");
    }
    std::ifstream in(fs::path(dir) / std::string(fields[0]));
    if (!in) {
      return Status::Corruption("missing document file '" +
                                std::string(fields[0]) + "' in '" + dir +
                                "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::map<std::string, std::string> metadata;
    if (fields.size() >= 3 && !fields[2].empty()) {
      for (std::string_view pair : SplitSkipEmpty(fields[2], ';')) {
        size_t eq = pair.find('=');
        if (eq == std::string_view::npos) {
          return Status::Corruption("bad metadata on MANIFEST line " +
                                    std::to_string(line_no));
        }
        metadata[UnescapeMeta(pair.substr(0, eq))] =
            UnescapeMeta(pair.substr(eq + 1));
      }
    }
    doc_names[std::string(fields[0])] = std::string(fields[1]);
    PARTIX_RETURN_IF_ERROR(db.StoreSerializedWithMetadata(
        collection, std::string(fields[1]), buffer.str(),
        std::move(metadata)));
  }
  if (expected_labels.empty()) {
    // Pre-label exports carry no STRUCT sidecar, so the label
    // verification below cannot run. That used to be silent — an
    // operator auditing integrity coverage had no way to tell "verified
    // clean" from "nothing to verify against". Count and say so once
    // per import instead.
    static telemetry::Counter* skipped =
        telemetry::MetricsRegistry::Global().GetCounter(
            "partix_struct_verify_skipped_total");
    skipped->Add();
    std::fprintf(stderr,
                 "partix: import of '%s' from '%s' has no STRUCT sidecar; "
                 "structural-label verification skipped\n",
                 collection.c_str(), dir.c_str());
  } else {
    // Re-derive labels from the imported documents (AllDocuments parses
    // through the LRU cache, which the first queries would fill anyway)
    // and compare against what the exporter recorded.
    std::map<std::string, const StructEntry*> by_doc_name;
    for (const auto& [file, entry] : expected_labels) {
      auto it = doc_names.find(file);
      if (it == doc_names.end()) {
        return Status::Corruption("STRUCT entry for '" + file +
                                  "' has no MANIFEST line in '" + dir + "'");
      }
      by_doc_name[it->second] = &entry;
    }
    PARTIX_ASSIGN_OR_RETURN(std::vector<xml::DocumentPtr> docs,
                            db.AllDocuments(collection));
    for (const xml::DocumentPtr& doc : docs) {
      auto it = by_doc_name.find(doc->doc_name());
      if (it == by_doc_name.end()) continue;
      const StructEntry& want = *it->second;
      uint32_t max_level = 0;
      for (xml::NodeId n = 0; n < doc->node_count(); ++n) {
        max_level = std::max(max_level, doc->label(n).level);
      }
      if (doc->node_count() != want.node_count ||
          max_level != want.max_level ||
          StructuralLabelChecksum(*doc) != want.checksum) {
        return Status::Corruption(
            "structural labels of '" + doc->doc_name() + "' in '" + dir +
            "' do not match STRUCT: the exported and re-parsed label "
            "streams diverge");
      }
    }
  }
  return Status::Ok();
}

}  // namespace partix::xdb
