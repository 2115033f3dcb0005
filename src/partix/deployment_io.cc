#include "partix/deployment_io.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "engine/persistence.h"
#include "fragmentation/schema_io.h"

namespace partix::middleware {

namespace fs = std::filesystem;

namespace {

Status WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot write '" + path.string() + "'");
  }
  out << content;
  return Status::Ok();
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot read '" + path.string() + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Status SaveDeployment(const std::string& dir,
                      const DistributionCatalog& catalog,
                      ClusterSim* cluster) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create '" + dir + "': " + ec.message());
  }
  if (fs::exists(fs::path(dir) / "catalog.txt")) {
    return Status::AlreadyExists("directory '" + dir +
                                 "' already holds a deployment");
  }

  std::string manifest =
      "nodes\t" + std::to_string(cluster->node_count()) + "\n";
  for (const auto& [name, node] : catalog.CentralizedCollections()) {
    manifest += "centralized\t" + name + "\t" + std::to_string(node) + "\n";
  }
  for (const std::string& name : catalog.FragmentedCollections()) {
    PARTIX_ASSIGN_OR_RETURN(const DistributionEntry* entry,
                            catalog.Get(name));
    manifest += "fragmented\t" + name + "\n";
    for (const FragmentPlacement& p : entry->placements) {
      // Primary first, then any backup replicas as trailing fields (a
      // replica-free manifest stays byte-identical to the old format).
      manifest += "placement\t" + name + "\t" + p.fragment + "\t" +
                  std::to_string(p.node);
      for (size_t b : p.backups) manifest += "\t" + std::to_string(b);
      manifest += "\n";
      // Published content digest on its own tagged line, only when known:
      // digest-free manifests stay byte-identical to the old format, and
      // old loaders would reject an extra placement field but a new tag
      // is the established extension point.
      if (p.content_digest != 0) {
        manifest += "digest\t" + name + "\t" + p.fragment + "\t" +
                    HashHex(p.content_digest) + "\n";
      }
      // Published fragment size, same extension mechanism as digests:
      // size-free manifests stay byte-identical to the old format.
      if (p.serialized_bytes != 0) {
        manifest += "bytes\t" + name + "\t" + p.fragment + "\t" +
                    std::to_string(p.serialized_bytes) + "\n";
      }
    }
    PARTIX_RETURN_IF_ERROR(WriteFile(
        fs::path(dir) / ("schema_" + name + ".txt"),
        frag::SerializeFragmentationSchema(entry->schema)));
  }
  PARTIX_RETURN_IF_ERROR(
      WriteFile(fs::path(dir) / "catalog.txt", manifest));

  // Export every collection of every node.
  for (size_t n = 0; n < cluster->node_count(); ++n) {
    xdb::Database& db = cluster->database(n);
    for (const std::string& collection : db.CollectionNames()) {
      fs::path target =
          fs::path(dir) / ("node" + std::to_string(n)) / collection;
      PARTIX_RETURN_IF_ERROR(
          xdb::ExportCollection(db, collection, target.string()));
    }
  }
  return Status::Ok();
}

Result<LoadedDeployment> LoadDeployment(const std::string& dir,
                                        xdb::DatabaseOptions node_options,
                                        NetworkModel network) {
  PARTIX_ASSIGN_OR_RETURN(std::string manifest,
                          ReadFile(fs::path(dir) / "catalog.txt"));

  LoadedDeployment out;
  out.catalog = std::make_unique<DistributionCatalog>();

  std::istringstream in(manifest);
  std::string line;
  int64_t node_count = 0;
  // Placements are listed after their "fragmented" line; gather then
  // register.
  std::map<std::string, std::vector<FragmentPlacement>> placements;
  std::vector<std::string> fragmented;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto fields = Split(line, '\t');
    const std::string tag(fields[0]);
    if (tag == "nodes") {
      if (fields.size() != 2 || !ParseInt64(fields[1], &node_count) ||
          node_count < 1) {
        return Status::Corruption("bad nodes line in catalog.txt");
      }
      out.cluster = std::make_unique<ClusterSim>(
          static_cast<size_t>(node_count), node_options, network);
    } else if (tag == "centralized") {
      int64_t node = 0;
      if (fields.size() != 3 || !ParseInt64(fields[2], &node)) {
        return Status::Corruption("bad centralized line in catalog.txt");
      }
      PARTIX_RETURN_IF_ERROR(out.catalog->RegisterCentralized(
          std::string(fields[1]), static_cast<size_t>(node)));
    } else if (tag == "fragmented") {
      if (fields.size() != 2) {
        return Status::Corruption("bad fragmented line in catalog.txt");
      }
      fragmented.emplace_back(fields[1]);
    } else if (tag == "placement") {
      int64_t node = 0;
      if (fields.size() < 4 || !ParseInt64(fields[3], &node)) {
        return Status::Corruption("bad placement line in catalog.txt");
      }
      FragmentPlacement p{.fragment = std::string(fields[2]),
                          .node = static_cast<size_t>(node)};
      for (size_t f = 4; f < fields.size(); ++f) {
        int64_t backup = 0;
        if (!ParseInt64(fields[f], &backup) || backup < 0) {
          return Status::Corruption("bad replica in placement line");
        }
        p.backups.push_back(static_cast<size_t>(backup));
      }
      placements[std::string(fields[1])].push_back(std::move(p));
    } else if (tag == "digest") {
      if (fields.size() != 4) {
        return Status::Corruption("bad digest line in catalog.txt");
      }
      uint64_t digest = 0;
      if (!ParseHex64(fields[3], &digest)) {
        return Status::Corruption("bad digest value in catalog.txt");
      }
      bool attached = false;
      for (FragmentPlacement& p : placements[std::string(fields[1])]) {
        if (p.fragment == fields[2]) {
          p.content_digest = digest;
          attached = true;
          break;
        }
      }
      if (!attached) {
        return Status::Corruption("digest line for unknown placement '" +
                                  std::string(fields[2]) + "'");
      }
    } else if (tag == "bytes") {
      if (fields.size() != 4) {
        return Status::Corruption("bad bytes line in catalog.txt");
      }
      int64_t bytes = 0;
      if (!ParseInt64(fields[3], &bytes) || bytes < 0) {
        return Status::Corruption("bad bytes value in catalog.txt");
      }
      bool attached = false;
      for (FragmentPlacement& p : placements[std::string(fields[1])]) {
        if (p.fragment == fields[2]) {
          p.serialized_bytes = static_cast<uint64_t>(bytes);
          attached = true;
          break;
        }
      }
      if (!attached) {
        return Status::Corruption("bytes line for unknown placement '" +
                                  std::string(fields[2]) + "'");
      }
    } else {
      return Status::Corruption("unknown tag '" + tag +
                                "' in catalog.txt");
    }
  }
  if (out.cluster == nullptr) {
    return Status::Corruption("catalog.txt has no nodes line");
  }

  for (const std::string& name : fragmented) {
    PARTIX_ASSIGN_OR_RETURN(
        std::string schema_text,
        ReadFile(fs::path(dir) / ("schema_" + name + ".txt")));
    PARTIX_ASSIGN_OR_RETURN(frag::FragmentationSchema schema,
                            frag::ParseFragmentationSchema(schema_text));
    PARTIX_RETURN_IF_ERROR(
        out.catalog->Register(std::move(schema), placements[name]));
  }

  // Import every node directory.
  for (size_t n = 0; n < out.cluster->node_count(); ++n) {
    fs::path node_dir = fs::path(dir) / ("node" + std::to_string(n));
    if (!fs::exists(node_dir)) continue;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(node_dir)) {
      if (!entry.is_directory()) continue;
      const std::string collection = entry.path().filename().string();
      PARTIX_RETURN_IF_ERROR(xdb::ImportCollection(
          out.cluster->database(n), collection, entry.path().string()));
    }
  }
  return out;
}

}  // namespace partix::middleware
