// Coverage for small public surfaces: document metadata, the query item
// model, union edge cases, subtree serialization, and wire-format
// construction.

#include <memory>

#include "fragmentation/algebra.h"
#include "fragmentation/origins.h"
#include "gtest/gtest.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/item.h"
#include "xpath/eval.h"

namespace partix {
namespace {

std::shared_ptr<xml::NamePool> Pool() {
  return std::make_shared<xml::NamePool>();
}

TEST(DocumentMetadataTest, SetGetAndDefault) {
  xml::Document doc(Pool(), "d");
  doc.CreateRoot("a");
  EXPECT_TRUE(doc.metadata().empty());
  EXPECT_EQ(doc.GetMetadata("missing"), "");
  doc.SetMetadata("k", "v");
  doc.SetMetadata("k", "v2");  // overwrite
  EXPECT_EQ(doc.GetMetadata("k"), "v2");
  EXPECT_EQ(doc.metadata().size(), 1u);
}

TEST(ItemModelTest, KindsAndAtomization) {
  xquery::Item str(std::string("x"));
  xquery::Item num(2.5);
  xquery::Item truth(true);
  EXPECT_TRUE(str.IsString());
  EXPECT_TRUE(num.IsNumber());
  EXPECT_TRUE(truth.IsBool());
  EXPECT_EQ(str.StringValue(), "x");
  EXPECT_EQ(num.StringValue(), "2.5");
  EXPECT_EQ(truth.StringValue(), "true");
  double out = 0;
  EXPECT_TRUE(truth.TryNumber(&out));
  EXPECT_DOUBLE_EQ(out, 1.0);
  EXPECT_FALSE(str.TryNumber(&out));
  xquery::Item numeric_str(std::string("7.5"));
  EXPECT_TRUE(numeric_str.TryNumber(&out));
  EXPECT_DOUBLE_EQ(out, 7.5);
}

TEST(ItemModelTest, NodeRefEqualityAndDocumentNodeSerialization) {
  auto pool = Pool();
  auto doc = xml::ParseXml(pool, "d", "<a><b>x</b></a>");
  ASSERT_TRUE(doc.ok());
  xquery::NodeRef r1{*doc, (*doc)->root()};
  xquery::NodeRef r2{*doc, (*doc)->root()};
  EXPECT_TRUE(r1 == r2);
  xquery::NodeRef doc_node{*doc, xml::kDocumentNode};
  xquery::Item item(doc_node);
  EXPECT_EQ(item.StringValue(), "x");
  xquery::Sequence seq{item};
  EXPECT_EQ(xquery::SerializeSequence(seq), "<a><b>x</b></a>");
}

TEST(UnionTest, EmptyInputRejected) {
  auto result = frag::UnionCollections({}, "out");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeSubtreeTest, SerializesMidTreeNodes) {
  auto pool = Pool();
  auto doc = xml::ParseXml(pool, "d",
                           "<a><b q=\"1\"><c>x</c></b><d/></a>");
  ASSERT_TRUE(doc.ok());
  auto path = xpath::Path::Parse("/a/b");
  ASSERT_TRUE(path.ok());
  auto nodes = xpath::EvalPath(**doc, *path);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(xml::SerializeSubtree(**doc, nodes[0]),
            "<b q=\"1\"><c>x</c></b>");
}

TEST(WireFormatTest, AttachesMetadataNotContent) {
  auto pool = Pool();
  auto src = xml::ParseXml(pool, "src", "<Item><Code>1</Code></Item>");
  ASSERT_TRUE(src.ok());
  auto projected =
      frag::ProjectDocument(**src, *xpath::Path::Parse("/Item"), {}, "f");
  ASSERT_TRUE(projected.ok());
  const xml::Document& wire = **projected;
  EXPECT_EQ(wire.GetMetadata("px-src"), "src");
  // Item, Code and its text: origin ids 0..2 in one data run.
  EXPECT_EQ(wire.GetMetadata("px-runs"), "0:3:0");
  EXPECT_EQ(wire.GetMetadata("px-anc"), "");
  // Content is untouched: no px attributes.
  EXPECT_EQ(xml::Serialize(wire), "<Item><Code>1</Code></Item>");
}

TEST(WireFormatTest, PassthroughForPlainDocuments) {
  // A horizontal fragment shares its source documents, which carry no
  // reconstruction IDs.
  auto pool = Pool();
  auto doc = xml::ParseXml(pool, "d", "<a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE((*doc)->metadata().empty());
  auto origins = frag::DecodeOrigins(**doc);
  ASSERT_TRUE(origins.ok()) << origins.status();
  EXPECT_TRUE(origins->source.empty());
}

TEST(ApproxBytesTest, GrowsWithContent) {
  xml::Document small(Pool(), "s");
  small.CreateRoot("a");
  xml::Document big(Pool(), "b");
  auto root = big.CreateRoot("a");
  for (int i = 0; i < 50; ++i) {
    auto child = big.AppendElement(root, "child");
    big.AppendText(child, "some text content here");
  }
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes());
}

}  // namespace
}  // namespace partix
