#include "xml/serializer.h"

#include "common/strings.h"

namespace partix::xml {

namespace {

void SerializeNode(const Document& doc, NodeId n, const SerializeOptions& opt,
                   int depth, std::string* out) {
  auto write_indent = [&](int d) {
    if (!opt.indent) return;
    if (!out->empty()) out->push_back('\n');
    out->append(static_cast<size_t>(d) * 2, ' ');
  };

  switch (doc.kind(n)) {
    case NodeKind::kText:
      AppendEscapedXml(doc.value(n), /*attr=*/false, out);
      return;
    case NodeKind::kAttribute:
      // Attributes are emitted by their owner element.
      return;
    case NodeKind::kElement:
      break;
  }

  write_indent(depth);
  out->push_back('<');
  out->append(doc.name(n));

  // One pass over the children writes the attributes into the start tag
  // and partitions the rest: text content is serialized inline; elements
  // are serialized nested (possibly indented).
  bool has_child = false;
  bool has_element_child = false;
  for (NodeId c = doc.first_child(n); c != kNullNode;
       c = doc.next_sibling(c)) {
    if (doc.kind(c) == NodeKind::kAttribute) {
      out->push_back(' ');
      out->append(doc.name(c));
      out->append("=\"");
      AppendEscapedXml(doc.value(c), /*attr=*/true, out);
      out->push_back('"');
      continue;
    }
    has_child = true;
    if (doc.kind(c) == NodeKind::kElement) has_element_child = true;
  }

  if (!has_child) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  for (NodeId c = doc.first_child(n); c != kNullNode;
       c = doc.next_sibling(c)) {
    if (doc.kind(c) == NodeKind::kAttribute) continue;
    SerializeNode(doc, c, opt, depth + 1, out);
  }
  if (has_element_child) write_indent(depth);
  out->append("</");
  out->append(doc.name(n));
  out->push_back('>');
}

}  // namespace

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  std::string out;
  if (options.declaration) {
    out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    // With indentation the root's own indent starts a new line after the
    // declaration; an empty document still ends that line.
    if (options.indent && doc.empty()) out.push_back('\n');
  }
  if (!doc.empty()) SerializeNode(doc, doc.root(), options, 0, &out);
  return out;
}

std::string SerializeSubtree(const Document& doc, NodeId node,
                             const SerializeOptions& options) {
  std::string out;
  SerializeNode(doc, node, options, 0, &out);
  return out;
}

void SerializeSubtreeInto(const Document& doc, NodeId node,
                          std::string* out) {
  SerializeNode(doc, node, SerializeOptions(), 0, out);
}

}  // namespace partix::xml
