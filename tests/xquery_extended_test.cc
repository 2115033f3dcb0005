// Extended XQuery semantics coverage: order by, constructor nesting,
// comparison corner cases, mixed-type sequences, and error behaviour.

#include <memory>

#include "gtest/gtest.h"
#include "xml/parser.h"
#include "xquery/evaluator.h"
#include "xquery/item.h"
#include "xquery/parser.h"

namespace partix::xquery {
namespace {

class XQueryExtendedTest : public ::testing::Test {
 protected:
  XQueryExtendedTest() : pool_(std::make_shared<xml::NamePool>()) {
    Add("nums", "<n><v>30</v></n>");
    Add("nums", "<n><v>4</v></n>");
    Add("nums", "<n><v>100</v></n>");
    Add("words", "<w><v>pear</v></w>");
    Add("words", "<w><v>apple</v></w>");
    Add("words", "<w><v>mango</v></w>");
  }

  void Add(const std::string& collection, const std::string& xml) {
    auto doc = xml::ParseXml(pool_, collection + std::to_string(n_++), xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    resolver_.Add(collection, *doc);
  }

  std::string Run(const std::string& query) {
    auto result = EvalQuery(query, &resolver_, pool_);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status();
    if (!result.ok()) return "<error>";
    return SerializeSequence(*result);
  }

  std::shared_ptr<xml::NamePool> pool_;
  MapResolver resolver_;
  int n_ = 0;
};

TEST_F(XQueryExtendedTest, OrderByNumeric) {
  EXPECT_EQ(Run("for $n in collection(\"nums\")/n "
                "order by $n/v return $n/v"),
            "<v>4</v>\n<v>30</v>\n<v>100</v>");
}

TEST_F(XQueryExtendedTest, OrderByDescending) {
  EXPECT_EQ(Run("for $n in collection(\"nums\")/n "
                "order by $n/v descending return $n/v"),
            "<v>100</v>\n<v>30</v>\n<v>4</v>");
}

TEST_F(XQueryExtendedTest, OrderByString) {
  EXPECT_EQ(Run("for $w in collection(\"words\")/w "
                "order by $w/v ascending return $w/v"),
            "<v>apple</v>\n<v>mango</v>\n<v>pear</v>");
}

TEST_F(XQueryExtendedTest, OrderByWithWhere) {
  EXPECT_EQ(Run("for $n in collection(\"nums\")/n "
                "where $n/v > 5 order by $n/v descending return $n/v"),
            "<v>100</v>\n<v>30</v>");
}

TEST_F(XQueryExtendedTest, OrderByExpression) {
  EXPECT_EQ(Run("for $i in (3, 1, 2) order by $i * -1 return $i"),
            "3\n2\n1");
}

TEST_F(XQueryExtendedTest, OrderByIsStable) {
  // Equal keys keep binding order.
  EXPECT_EQ(Run("for $i in (\"b1\", \"a2\", \"b2\", \"a1\") "
                "order by string-length($i) return $i"),
            "b1\na2\nb2\na1");
}

TEST_F(XQueryExtendedTest, OrderByRoundTripsThroughPrinter) {
  auto ast = ParseQuery(
      "for $n in collection(\"nums\")/n order by $n/v descending "
      "return $n/v");
  ASSERT_TRUE(ast.ok());
  auto reparsed = ParseQuery(ExprToString(**ast));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(ExprToString(**reparsed), ExprToString(**ast));
}

TEST_F(XQueryExtendedTest, NestedConstructors) {
  EXPECT_EQ(Run("<a><b>{ 1 }</b><c d=\"x\">{ \"y\" }</c></a>"),
            "<a><b>1</b><c d=\"x\">y</c></a>");
}

TEST_F(XQueryExtendedTest, ConstructorCopiesNodesDeeply) {
  EXPECT_EQ(Run("<wrap>{ collection(\"nums\")/n[v = 4] }</wrap>"),
            "<wrap><n><v>4</v></n></wrap>");
}

TEST_F(XQueryExtendedTest, ConstructedTreeIsQueryable) {
  EXPECT_EQ(Run("let $x := <a><b>7</b></a> return $x/b"), "<b>7</b>");
  EXPECT_EQ(Run("count(let $x := <a><b/><b/></a> return $x/b)"), "2");
}

TEST_F(XQueryExtendedTest, MixedTypeGeneralComparison) {
  // Node-to-number comparisons atomize and compare numerically.
  EXPECT_EQ(Run("collection(\"nums\")/n/v > 50"), "true");
  EXPECT_EQ(Run("collection(\"nums\")/n/v > 100"), "false");
  // String vs string is lexicographic.
  EXPECT_EQ(Run("\"apple\" < \"pear\""), "true");
}

TEST_F(XQueryExtendedTest, EmptySequenceSemantics) {
  EXPECT_EQ(Run("count(collection(\"nums\")/n/zzz)"), "0");
  // Comparisons against the empty sequence are false.
  EXPECT_EQ(Run("collection(\"nums\")/n/zzz = 1"), "false");
  // Arithmetic with the empty sequence is empty.
  EXPECT_EQ(Run("count(1 + collection(\"nums\")/n/zzz)"), "0");
  EXPECT_EQ(Run("sum(())"), "0");
  EXPECT_EQ(Run("count(avg(()))"), "0");
}

TEST_F(XQueryExtendedTest, WhereOverLetBinding) {
  EXPECT_EQ(Run("for $n in collection(\"nums\")/n "
                "let $v := $n/v where $v >= 30 order by $v return $v"),
            "<v>30</v>\n<v>100</v>");
}

TEST_F(XQueryExtendedTest, IfWithoutParensFails) {
  EXPECT_FALSE(ParseQuery("if 1 then 2 else 3").ok());
}

TEST_F(XQueryExtendedTest, DeeplyNestedExpressions) {
  EXPECT_EQ(Run("((((1 + 2)))) * (2 + (3 - 1))"), "12");
  EXPECT_EQ(Run("if (if (1 < 2) then 1 > 0 else 0 > 1) then \"a\" "
                "else \"b\""),
            "a");
}

TEST_F(XQueryExtendedTest, AttributeAccess) {
  Add("attrs", "<r id=\"7\" kind=\"x\"><c id=\"8\"/></r>");
  EXPECT_EQ(Run("collection(\"attrs\")/r/@id"), "7");
  EXPECT_EQ(Run("count(collection(\"attrs\")/r/@*)"), "2");
  EXPECT_EQ(Run("collection(\"attrs\")/r[@kind = \"x\"]/c/@id"), "8");
  EXPECT_EQ(Run("count(collection(\"attrs\")//@id)"), "2");
}

TEST_F(XQueryExtendedTest, DescendantFromDocumentNode) {
  EXPECT_EQ(Run("count(collection(\"nums\")//v)"), "3");
  // Descendant step can also match the root elements themselves.
  EXPECT_EQ(Run("count(collection(\"nums\")//n)"), "3");
}

TEST_F(XQueryExtendedTest, StringFunctionsOnNodes) {
  EXPECT_EQ(Run("string(collection(\"words\")/w[v = \"apple\"]/v)"),
            "apple");
  EXPECT_EQ(Run("concat(\"[\", collection(\"nums\")/n[v = 4]/v, \"]\")"),
            "[4]");
}

TEST_F(XQueryExtendedTest, ArithmeticEdgeCases) {
  EXPECT_EQ(Run("7 mod 2"), "1");
  EXPECT_EQ(Run("-3 + 5"), "2");
  EXPECT_EQ(Run("2 * -3"), "-6");
  EXPECT_EQ(Run("1 div 2"), "0.5");
}

TEST_F(XQueryExtendedTest, CommaSequencesFlatten) {
  EXPECT_EQ(Run("count(((1, 2), (3, (4, 5))))"), "5");
}

TEST_F(XQueryExtendedTest, PositionAndLastInPredicates) {
  Add("seq", "<r><x>a</x><x>b</x><x>c</x><x>d</x></r>");
  EXPECT_EQ(Run("collection(\"seq\")/r/x[position() = 2]"), "<x>b</x>");
  EXPECT_EQ(Run("collection(\"seq\")/r/x[position() >= 3]"),
            "<x>c</x>\n<x>d</x>");
  EXPECT_EQ(Run("collection(\"seq\")/r/x[last()]"), "<x>d</x>");
  EXPECT_EQ(Run("collection(\"seq\")/r/x[position() = last() - 1]"),
            "<x>c</x>");
  // Outside a predicate, position() is an error.
  auto bad = EvalQuery("position()", &resolver_, pool_);
  EXPECT_FALSE(bad.ok());
}

TEST_F(XQueryExtendedTest, SubstringFamily) {
  EXPECT_EQ(Run("substring(\"hello world\", 7)"), "world");
  EXPECT_EQ(Run("substring(\"hello\", 2, 3)"), "ell");
  EXPECT_EQ(Run("substring(\"hello\", 0, 2)"), "h");  // 1-based clamping
  EXPECT_EQ(Run("substring(\"hi\", 9)"), "");
  EXPECT_EQ(Run("string-join((\"a\", \"b\", \"c\"), \"-\")"), "a-b-c");
  EXPECT_EQ(Run("string-join((), \"-\")"), "");
  EXPECT_EQ(Run("normalize-space(\"  a   b \")"), "a b");
  EXPECT_EQ(Run("upper-case(\"MiXeD\")"), "MIXED");
  EXPECT_EQ(Run("lower-case(\"MiXeD\")"), "mixed");
}

TEST_F(XQueryExtendedTest, ParserDepthGuard) {
  std::string deep;
  std::string close;
  for (int i = 0; i < 2000; ++i) {
    deep += "<a>";
    close += "</a>";
  }
  auto result = xml::ParseXml(pool_, "deep", deep + close);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  // A reasonable depth still parses.
  std::string ok_doc;
  std::string ok_close;
  for (int i = 0; i < 100; ++i) {
    ok_doc += "<a>";
    ok_close += "</a>";
  }
  EXPECT_TRUE(xml::ParseXml(pool_, "ok", ok_doc + ok_close).ok());
}

TEST_F(XQueryExtendedTest, SomeQuantifier) {
  EXPECT_EQ(Run("some $x in (1, 2, 3) satisfies $x > 2"), "true");
  EXPECT_EQ(Run("some $x in (1, 2, 3) satisfies $x > 3"), "false");
  EXPECT_EQ(Run("some $x in () satisfies $x > 0"), "false");
  EXPECT_EQ(Run("some $n in collection(\"nums\")/n "
                "satisfies $n/v = 100"),
            "true");
}

TEST_F(XQueryExtendedTest, EveryQuantifier) {
  EXPECT_EQ(Run("every $x in (1, 2, 3) satisfies $x > 0"), "true");
  EXPECT_EQ(Run("every $x in (1, 2, 3) satisfies $x > 1"), "false");
  // Vacuously true over the empty sequence.
  EXPECT_EQ(Run("every $x in () satisfies $x > 0"), "true");
}

TEST_F(XQueryExtendedTest, NestedQuantifierBindings) {
  EXPECT_EQ(Run("some $x in (1, 2), $y in (10, 20) "
                "satisfies $x + $y = 22"),
            "true");
  EXPECT_EQ(Run("every $x in (1, 2), $y in (10, 20) "
                "satisfies $x + $y < 23"),
            "true");
  EXPECT_EQ(Run("every $x in (1, 2), $y in (10, 20) "
                "satisfies $x + $y < 22"),
            "false");
}

TEST_F(XQueryExtendedTest, QuantifierRoundTripsThroughPrinter) {
  auto ast = ParseQuery(
      "every $x in (1, 2) satisfies some $y in (3, 4) satisfies $x < $y");
  ASSERT_TRUE(ast.ok()) << ast.status();
  auto reparsed = ParseQuery(ExprToString(**ast));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(ExprToString(**reparsed), ExprToString(**ast));
}

TEST_F(XQueryExtendedTest, QuantifierErrors) {
  EXPECT_FALSE(ParseQuery("some $x in (1)").ok());      // no satisfies
  EXPECT_FALSE(ParseQuery("some x in (1) satisfies 1").ok());
}

}  // namespace
}  // namespace partix::xquery
