#ifndef PARTIX_BENCH_COLLECTION_SIZE_H_
#define PARTIX_BENCH_COLLECTION_SIZE_H_

#include <cstdint>
#include <string>

#include "common/strings.h"
#include "xml/collection.h"
#include "xml/serializer.h"

namespace partix::bench {

/// Bytes of XML the collection's documents serialize to: the size the
/// generators target and the paper quotes.
inline uint64_t SerializedBytes(const xml::Collection& collection) {
  uint64_t bytes = 0;
  for (const xml::DocumentPtr& doc : collection.docs()) {
    bytes += xml::Serialize(*doc).size();
  }
  return bytes;
}

/// The size a bench header prints: "<serialized> serialized", and with
/// `charged` also the bytes a parse cache or the memory governor charges
/// for the parsed documents (Collection::ApproxBytes), which a bench that
/// sizes a cache from that charge prints beside it.
inline std::string DescribeSize(const xml::Collection& collection,
                                bool charged = false) {
  std::string out = HumanBytes(SerializedBytes(collection)) + " serialized";
  if (charged) out += ", " + HumanBytes(collection.ApproxBytes()) + " charged";
  return out;
}

}  // namespace partix::bench

#endif  // PARTIX_BENCH_COLLECTION_SIZE_H_
