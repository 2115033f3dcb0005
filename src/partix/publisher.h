#ifndef PARTIX_PARTIX_PUBLISHER_H_
#define PARTIX_PARTIX_PUBLISHER_H_

#include <vector>

#include "common/result.h"
#include "fragmentation/fragment_def.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "xml/collection.h"

namespace partix::middleware {

/// Distributed XML Data Publisher (paper §4): receives XML documents,
/// applies the fragmentation previously defined for the collection, and
/// sends the resulting fragments to be stored at the remote DBMS nodes,
/// registering the design in the distribution catalog.
///
/// Vertical/hybrid fragment documents carry their reconstruction IDs as
/// out-of-band document metadata (frag::EncodeOrigins), which the stores
/// keep beside the serialized XML so that the query service can join
/// partial results — "we keep an ID in each vertical fragment for
/// reconstruction purposes".
class DataPublisher {
 public:
  DataPublisher(ClusterSim* cluster, DistributionCatalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  /// Stores an unfragmented collection at `node` and registers it as
  /// centralized.
  Status PublishCentralized(const xml::Collection& c, size_t node);

  /// Fragments `c` per `schema`, stores each fragment at *every* node of
  /// its placement's replica set, and registers the design. When
  /// `placements` is empty, replica r of fragment i goes to node
  /// (i + r) mod node_count for r in [0, replication_factor);
  /// `replication_factor` is ignored when explicit placements are given
  /// (their backup lists already encode it).
  ///
  /// Each fragment's wire documents are serialized once middleware-side
  /// and every replica stores those exact bytes, so the content digest
  /// recorded on the registered placement holds at every copy by
  /// construction (absent injected storage corruption).
  Status PublishFragmented(const xml::Collection& c,
                           const frag::FragmentationSchema& schema,
                           std::vector<FragmentPlacement> placements = {},
                           size_t replication_factor = 1);

  /// Copies one fragment collection byte-for-byte from `source` to
  /// `target`: same collection metadata, same serialized documents, same
  /// out-of-band reconstruction IDs. An existing copy at the target is
  /// dropped first (the caller decided to overwrite it — this is the
  /// repair path). Catalog-independent: replica repair and the scrubber
  /// call it while the authoritative catalog is a snapshot they are
  /// about to supersede.
  Status ReplicateFragment(const std::string& fragment, size_t source,
                           size_t target);

 private:
  /// Stores every fragment at its replica set and stamps each placement's
  /// `content_digest` from the serialized wire bytes.
  Status StoreFragments(const std::vector<xml::Collection>& fragments,
                        std::vector<FragmentPlacement>& placements);

  ClusterSim* cluster_;
  DistributionCatalog* catalog_;
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_PUBLISHER_H_
