#include "partix/allocation.h"

#include <algorithm>
#include <numeric>

namespace partix::middleware {

Result<std::vector<FragmentPlacement>> ComputePlacements(
    const std::vector<xml::Collection>& fragments, size_t node_count,
    PlacementStrategy strategy, size_t replication_factor) {
  if (node_count == 0) {
    return Status::InvalidArgument("cluster has no nodes");
  }
  if (fragments.empty()) {
    return Status::InvalidArgument("no fragments to place");
  }
  if (replication_factor == 0) {
    return Status::InvalidArgument("replication_factor must be >= 1");
  }
  if (replication_factor > node_count) {
    return Status::InvalidArgument(
        "replication_factor " + std::to_string(replication_factor) +
        " exceeds node count " + std::to_string(node_count));
  }
  std::vector<FragmentPlacement> placements;
  placements.reserve(fragments.size());

  switch (strategy) {
    case PlacementStrategy::kRoundRobin: {
      for (size_t i = 0; i < fragments.size(); ++i) {
        FragmentPlacement p{.fragment = fragments[i].name(),
                            .node = i % node_count};
        for (size_t r = 1; r < replication_factor; ++r) {
          p.backups.push_back((i + r) % node_count);
        }
        placements.push_back(std::move(p));
      }
      return placements;
    }
    case PlacementStrategy::kSizeBalanced: {
      // LPT greedy: biggest fragment first onto the lightest node; each
      // backup replica then goes to the lightest node not already holding
      // a copy of the fragment.
      std::vector<size_t> order(fragments.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         return fragments[a].ApproxBytes() >
                                fragments[b].ApproxBytes();
                       });
      std::vector<uint64_t> load(node_count, 0);
      placements.resize(fragments.size());
      for (size_t idx : order) {
        std::vector<bool> holds(node_count, false);
        FragmentPlacement p{.fragment = fragments[idx].name()};
        for (size_t r = 0; r < replication_factor; ++r) {
          size_t lightest = node_count;
          for (size_t n = 0; n < node_count; ++n) {
            if (holds[n]) continue;
            if (lightest == node_count || load[n] < load[lightest]) {
              lightest = n;
            }
          }
          holds[lightest] = true;
          load[lightest] += fragments[idx].ApproxBytes();
          if (r == 0) {
            p.node = lightest;
          } else {
            p.backups.push_back(lightest);
          }
        }
        placements[idx] = std::move(p);
      }
      return placements;
    }
  }
  return Status::Internal("unknown placement strategy");
}

std::vector<uint64_t> PlacementLoads(
    const std::vector<xml::Collection>& fragments,
    const std::vector<FragmentPlacement>& placements, size_t node_count) {
  std::vector<uint64_t> load(node_count, 0);
  for (const FragmentPlacement& p : placements) {
    for (const xml::Collection& frag : fragments) {
      if (frag.name() != p.fragment) continue;
      for (size_t node : p.AllNodes()) {
        if (node < node_count) load[node] += frag.ApproxBytes();
      }
    }
  }
  return load;
}

std::vector<size_t> CatalogReplicaCounts(const DistributionCatalog& catalog,
                                         size_t node_count) {
  std::vector<size_t> counts(node_count, 0);
  for (const std::string& collection : catalog.FragmentedCollections()) {
    Result<const DistributionEntry*> entry = catalog.Get(collection);
    if (!entry.ok()) continue;
    for (const FragmentPlacement& p : (*entry)->placements) {
      for (size_t node : p.AllNodes()) {
        if (node < node_count) ++counts[node];
      }
    }
  }
  return counts;
}

}  // namespace partix::middleware
