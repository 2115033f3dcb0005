#include <memory>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "xml/compare.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/schema.h"
#include "xml/serializer.h"

namespace partix::xml {
namespace {

std::shared_ptr<NamePool> Pool() { return std::make_shared<NamePool>(); }

TEST(NamePoolTest, InternsAndFinds) {
  NamePool pool;
  NameId a = pool.Intern("Item");
  NameId b = pool.Intern("Store");
  NameId a2 = pool.Intern("Item");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Get(a), "Item");
  EXPECT_EQ(pool.Find("Store"), b);
  EXPECT_FALSE(pool.Find("Nope").has_value());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(NamePoolTest, StableViewsAcrossGrowth) {
  NamePool pool;
  std::vector<std::string_view> views;
  for (int i = 0; i < 1000; ++i) {
    views.push_back(pool.Get(pool.Intern("name" + std::to_string(i))));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.Find("name" + std::to_string(i)).value(),
              static_cast<NameId>(i));
    EXPECT_EQ(views[i], "name" + std::to_string(i));
  }
}

TEST(DocumentTest, BuildAndNavigate) {
  Document doc(Pool(), "d1");
  NodeId root = doc.CreateRoot("Item");
  NodeId code = doc.AppendElement(root, "Code");
  doc.AppendText(code, "42");
  doc.AppendAttribute(root, "id", "abc");
  NodeId name = doc.AppendElement(root, "Name");
  doc.AppendText(name, "thing");

  EXPECT_EQ(doc.root(), root);
  EXPECT_EQ(doc.name(root), "Item");
  EXPECT_EQ(doc.parent(code), root);
  EXPECT_EQ(doc.ElementChildren(root).size(), 2u);
  EXPECT_EQ(doc.Attributes(root).size(), 1u);
  NodeId attr = doc.FindAttribute(root, *doc.pool()->Find("id"));
  ASSERT_NE(attr, kNullNode);
  EXPECT_EQ(doc.value(attr), "abc");
  EXPECT_EQ(doc.StringValue(root), "42thing");
  EXPECT_EQ(doc.StringValue(code), "42");
  EXPECT_TRUE(doc.HasSimpleContent(code));
  EXPECT_FALSE(doc.HasSimpleContent(root));
  EXPECT_EQ(doc.node_count(), 6u);
}

TEST(DocumentTest, ElementChildrenByName) {
  Document doc(Pool(), "d");
  NodeId root = doc.CreateRoot("r");
  doc.AppendElement(root, "a");
  doc.AppendElement(root, "b");
  doc.AppendElement(root, "a");
  NameId a = *doc.pool()->Find("a");
  EXPECT_EQ(doc.ElementChildren(root, a).size(), 2u);
}

TEST(DocumentTest, CopySubtreeWithSkip) {
  auto pool = Pool();
  Document src(pool, "src");
  NodeId root = src.CreateRoot("Item");
  NodeId keep = src.AppendElement(root, "Keep");
  src.AppendText(keep, "k");
  NodeId drop = src.AppendElement(root, "Drop");
  src.AppendText(drop, "d");

  Document dst(pool, "dst");
  dst.EnableOriginTracking("src");
  NodeId copied = dst.CopySubtree(src, root, kNullNode,
                                  [&](NodeId n) { return n == drop; });
  ASSERT_NE(copied, kNullNode);
  EXPECT_EQ(dst.ElementChildren(copied).size(), 1u);
  EXPECT_EQ(dst.StringValue(copied), "k");
  EXPECT_EQ(dst.origin(copied), root);
  EXPECT_EQ(dst.origin_doc(), "src");
}

TEST(DocumentTest, VisitSubtreeIsPreorder) {
  Document doc(Pool(), "d");
  NodeId root = doc.CreateRoot("r");
  NodeId a = doc.AppendElement(root, "a");
  doc.AppendText(a, "x");
  doc.AppendElement(root, "b");
  std::vector<NodeId> order;
  doc.VisitSubtree(root, [&](NodeId n) { order.push_back(n); });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], root);
  EXPECT_EQ(order[1], a);
}

TEST(ParserTest, ParsesBasicDocument) {
  auto result = ParseXml(Pool(), "t",
                         "<?xml version=\"1.0\"?>\n"
                         "<Item id=\"7\"><Code>42</Code>"
                         "<Name>a &amp; b</Name></Item>");
  ASSERT_TRUE(result.ok()) << result.status();
  const Document& doc = **result;
  EXPECT_EQ(doc.name(doc.root()), "Item");
  EXPECT_EQ(doc.StringValue(doc.root()), "42a & b");
  EXPECT_EQ(doc.Attributes(doc.root()).size(), 1u);
}

TEST(ParserTest, SelfClosingAndNesting) {
  auto result =
      ParseXml(Pool(), "t", "<a><b/><c><d>x</d></c></a>");
  ASSERT_TRUE(result.ok()) << result.status();
  const Document& doc = **result;
  EXPECT_EQ(doc.ElementChildren(doc.root()).size(), 2u);
}

TEST(ParserTest, EntitiesAndCharRefs) {
  auto result = ParseXml(Pool(), "t",
                         "<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->StringValue((*result)->root()), "<>&\"'AB");
}

TEST(ParserTest, CdataSection) {
  auto result = ParseXml(Pool(), "t", "<a><![CDATA[1 < 2 & 3]]></a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->StringValue((*result)->root()), "1 < 2 & 3");
}

TEST(ParserTest, SkipsCommentsAndPIsAndDoctype) {
  auto result = ParseXml(Pool(), "t",
                         "<!DOCTYPE a [<!ELEMENT a ANY>]>"
                         "<!-- hi --><?pi data?><a><!-- in -->"
                         "<b>x</b></a><!-- after -->");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->ElementChildren((*result)->root()).size(), 1u);
}

TEST(ParserTest, RejectsMismatchedTags) {
  auto result = ParseXml(Pool(), "t", "<a><b></a></b>");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, RejectsMixedContent) {
  auto result = ParseXml(Pool(), "t", "<a>text<b/></a>");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, RejectsTruncatedInput) {
  EXPECT_FALSE(ParseXml(Pool(), "t", "<a><b>").ok());
  EXPECT_FALSE(ParseXml(Pool(), "t", "").ok());
  EXPECT_FALSE(ParseXml(Pool(), "t", "<a attr=>").ok());
}

TEST(ParserTest, ReportsLineNumbers) {
  auto result = ParseXml(Pool(), "t", "<a>\n\n<b x=></b></a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
}

TEST(SerializerTest, RoundTrip) {
  auto pool = Pool();
  auto parsed = ParseXml(pool, "t",
                         "<Store><Items><Item id=\"1\"><Code>5</Code>"
                         "</Item></Items></Store>");
  ASSERT_TRUE(parsed.ok());
  std::string serialized = Serialize(**parsed);
  auto reparsed = ParseXml(pool, "t2", serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(DocumentsEqual(**parsed, **reparsed));
}

TEST(SerializerTest, EscapesSpecialCharacters) {
  auto pool = Pool();
  Document doc(pool, "d");
  NodeId root = doc.CreateRoot("a");
  doc.AppendAttribute(root, "q", "x\"y<z");
  doc.AppendText(root, "1<2&3");
  std::string s = Serialize(doc);
  EXPECT_EQ(s, "<a q=\"x&quot;y&lt;z\">1&lt;2&amp;3</a>");
  auto round = ParseXml(pool, "d2", s);
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(DocumentsEqual(doc, **round));
}

TEST(SerializerTest, EscapesMarkupCharactersAnywhereInAValue) {
  // Each of & < > " at the start, in the middle, at the end, next to
  // another and alone, in text and in attribute values (where the quote
  // is escaped too).
  const std::pair<std::string, std::string> kText[] = {
      {"&a", "&amp;a"},      {"a<b", "a&lt;b"},     {"ab>", "ab&gt;"},
      {"\"x\"", "\"x\""},    {"<&>", "&lt;&amp;&gt;"},
      {"&", "&amp;"},        {"<", "&lt;"},         {">", "&gt;"},
      {"\"", "\""},          {"a&&b<>c", "a&amp;&amp;b&lt;&gt;c"},
  };
  const std::pair<std::string, std::string> kAttr[] = {
      {"\"a", "&quot;a"},   {"a\"b", "a&quot;b"},  {"ab\"", "ab&quot;"},
      {"\"", "&quot;"},     {"&\"<\">", "&amp;&quot;&lt;&quot;&gt;"},
      {"<a>", "&lt;a&gt;"},  {"&", "&amp;"},         {"x", "x"},
  };
  auto pool = Pool();
  for (const auto& [value, expected] : kText) {
    Document doc(pool, "d");
    doc.AppendText(doc.CreateRoot("t"), value);
    EXPECT_EQ(Serialize(doc), "<t>" + expected + "</t>") << value;
  }
  for (const auto& [value, expected] : kAttr) {
    Document doc(pool, "d");
    NodeId root = doc.CreateRoot("t");
    doc.AppendAttribute(root, "v", value);
    doc.AppendAttribute(root, "w", value);
    EXPECT_EQ(Serialize(doc),
              "<t v=\"" + expected + "\" w=\"" + expected + "\"/>")
        << value;
  }
}

TEST(SerializerTest, IndentedOutput) {
  auto pool = Pool();
  Document doc(pool, "d");
  NodeId root = doc.CreateRoot("a");
  NodeId b = doc.AppendElement(root, "b");
  doc.AppendText(b, "x");
  SerializeOptions opts;
  opts.indent = true;
  std::string s = Serialize(doc, opts);
  EXPECT_NE(s.find("\n  <b>"), std::string::npos);
}

TEST(CompareTest, DetectsDifferences) {
  auto pool = Pool();
  auto a = ParseXml(pool, "a", "<r><x>1</x></r>");
  auto b = ParseXml(pool, "b", "<r><x>2</x></r>");
  auto c = ParseXml(pool, "c", "<r><x>1</x></r>");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_FALSE(DocumentsEqual(**a, **b));
  EXPECT_TRUE(DocumentsEqual(**a, **c));
  EXPECT_FALSE(
      ExplainDifference(**a, (*a)->root(), **b, (*b)->root())
          .empty());
}

TEST(SchemaTest, ValidatesVirtualStoreItem) {
  auto pool = Pool();
  auto doc = ParseXml(pool, "item",
                      "<Item><Code>1</Code><Name>n</Name>"
                      "<Description>d</Description><Section>CD</Section>"
                      "<Release>2004-01-01</Release></Item>");
  ASSERT_TRUE(doc.ok());
  SchemaPtr schema = xml::VirtualStoreSchema();
  EXPECT_TRUE(schema->Validate(**doc, "Item").ok());
}

TEST(SchemaTest, RejectsMissingMandatoryChild) {
  auto pool = Pool();
  auto doc = ParseXml(pool, "item", "<Item><Code>1</Code></Item>");
  ASSERT_TRUE(doc.ok());
  SchemaPtr schema = xml::VirtualStoreSchema();
  Status status = schema->Validate(**doc, "Item");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsUndeclaredChild) {
  auto pool = Pool();
  auto doc = ParseXml(pool, "item",
                      "<Item><Code>1</Code><Name>n</Name>"
                      "<Description>d</Description><Section>CD</Section>"
                      "<Release>r</Release><Bogus>x</Bogus></Item>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(
      xml::VirtualStoreSchema()->Validate(**doc, "Item").ok());
}

TEST(SchemaTest, RejectsWrongRoot) {
  auto pool = Pool();
  auto doc = ParseXml(pool, "d", "<Other/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(xml::VirtualStoreSchema()->Validate(**doc, "Item").ok());
}

TEST(SchemaTest, XBenchSchemaHasArticleTypes) {
  SchemaPtr schema = xml::XBenchArticleSchema();
  EXPECT_NE(schema->FindType("article"), nullptr);
  EXPECT_NE(schema->FindType("prolog"), nullptr);
  EXPECT_NE(schema->FindType("body"), nullptr);
  EXPECT_NE(schema->FindType("epilog"), nullptr);
  EXPECT_EQ(schema->FindType("nope"), nullptr);
}

}  // namespace
}  // namespace partix::xml
