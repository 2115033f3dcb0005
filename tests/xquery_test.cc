#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "xml/parser.h"
#include "xquery/ast.h"
#include "xquery/evaluator.h"
#include "xquery/item.h"
#include "xquery/parser.h"

namespace partix::xquery {
namespace {

class XQueryEvalTest : public ::testing::Test {
 protected:
  XQueryEvalTest() : pool_(std::make_shared<xml::NamePool>()) {
    Add("items",
        "<Item><Code>1</Code><Name>cd one</Name>"
        "<Description>a good disc</Description><Section>CD</Section>"
        "</Item>");
    Add("items",
        "<Item><Code>2</Code><Name>dvd one</Name>"
        "<Description>a fine movie</Description><Section>DVD</Section>"
        "</Item>");
    Add("items",
        "<Item><Code>3</Code><Name>cd two</Name>"
        "<Description>another good disc</Description><Section>CD</Section>"
        "<PictureList><Picture><Name>p</Name>"
        "<Description>pic</Description></Picture></PictureList>"
        "</Item>");
  }

  void Add(const std::string& collection, const std::string& xml) {
    static int counter = 0;
    auto doc = xml::ParseXml(pool_, "doc" + std::to_string(counter++), xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    resolver_.Add(collection, *doc);
  }

  /// Runs a query, expecting success; returns the serialized result.
  std::string Run(const std::string& query) {
    Result<Sequence> result = EvalQuery(query, &resolver_, pool_);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status();
    if (!result.ok()) return "<error>";
    return SerializeSequence(*result);
  }

  Status RunError(const std::string& query) {
    Result<Sequence> result = EvalQuery(query, &resolver_, pool_);
    EXPECT_FALSE(result.ok()) << query;
    return result.ok() ? Status::Ok() : result.status();
  }

  std::shared_ptr<xml::NamePool> pool_;
  MapResolver resolver_;
};

TEST_F(XQueryEvalTest, Literals) {
  EXPECT_EQ(Run("42"), "42");
  EXPECT_EQ(Run("\"hello\""), "hello");
  EXPECT_EQ(Run("3.5"), "3.5");
  EXPECT_EQ(Run("-7"), "-7");
}

TEST_F(XQueryEvalTest, Arithmetic) {
  EXPECT_EQ(Run("1 + 2 * 3"), "7");
  EXPECT_EQ(Run("(1 + 2) * 3"), "9");
  EXPECT_EQ(Run("10 div 4"), "2.5");
  EXPECT_EQ(Run("10 mod 4"), "2");
  EXPECT_EQ(Run("1 - 2 - 3"), "-4");
}

TEST_F(XQueryEvalTest, Comparisons) {
  EXPECT_EQ(Run("1 < 2"), "true");
  EXPECT_EQ(Run("\"a\" = \"a\""), "true");
  EXPECT_EQ(Run("1 >= 2"), "false");
  EXPECT_EQ(Run("1 != 2"), "true");
}

TEST_F(XQueryEvalTest, BooleanConnectives) {
  EXPECT_EQ(Run("1 < 2 and 2 < 3"), "true");
  EXPECT_EQ(Run("1 > 2 or 2 < 3"), "true");
  EXPECT_EQ(Run("not(1 > 2)"), "true");
}

TEST_F(XQueryEvalTest, SequencesAndCount) {
  EXPECT_EQ(Run("count((1, 2, 3))"), "3");
  EXPECT_EQ(Run("count(())"), "0");
  EXPECT_EQ(Run("sum((1, 2, 3))"), "6");
  EXPECT_EQ(Run("avg((2, 4))"), "3");
  EXPECT_EQ(Run("min((3, 1, 2))"), "1");
  EXPECT_EQ(Run("max((3, 1, 2))"), "3");
}

TEST_F(XQueryEvalTest, CollectionPathNavigation) {
  EXPECT_EQ(Run("count(collection(\"items\"))"), "3");
  EXPECT_EQ(Run("count(collection(\"items\")/Item)"), "3");
  EXPECT_EQ(Run("count(collection(\"items\")/Item/Code)"), "3");
  EXPECT_EQ(Run("count(collection(\"items\")//Description)"), "4");
  EXPECT_EQ(Run("count(collection(\"items\")/Item/Nope)"), "0");
}

TEST_F(XQueryEvalTest, StepPredicates) {
  EXPECT_EQ(Run("count(collection(\"items\")/Item[Section = \"CD\"])"),
            "2");
  EXPECT_EQ(
      Run("count(collection(\"items\")/Item[contains(Description, "
          "\"good\")])"),
      "2");
  EXPECT_EQ(Run("count(collection(\"items\")/Item[PictureList])"), "1");
  EXPECT_EQ(Run("count(collection(\"items\")/Item[Code > 1])"), "2");
}

TEST_F(XQueryEvalTest, PositionalPredicate) {
  // XQuery applies positional predicates per context node: each document
  // node contributes its own Item[1].
  EXPECT_EQ(Run("collection(\"items\")/Item[1]/Code"),
            "<Code>1</Code>\n<Code>2</Code>\n<Code>3</Code>");
  // Within one document, [n] selects the n-th matching sibling.
  Add("one", "<r><x>a</x><x>b</x><x>c</x></r>");
  EXPECT_EQ(Run("collection(\"one\")/r/x[2]"), "<x>b</x>");
  EXPECT_EQ(Run("count(collection(\"one\")/r/x[9])"), "0");
}

TEST_F(XQueryEvalTest, ComputedNumericPredicateSelectsExactPosition) {
  const std::string r = "<r><a/><b/><c/></r>";
  // Whole numbers select the item at that position, literal or computed.
  EXPECT_EQ(Run(r + "/*[2]"), "<b/>");
  EXPECT_EQ(Run(r + "/*[last() - 1]"), "<b/>");
  EXPECT_EQ(Run("let $n := 2 return " + r + "/*[$n]"), "<b/>");
  // A number that is no position selects nothing: fractions, negatives,
  // NaN and numbers past the end.
  EXPECT_EQ(Run(r + "/*[1.5]"), "");
  EXPECT_EQ(Run(r + "/*[last() - 0.5]"), "");
  EXPECT_EQ(Run("let $n := 1.5 return " + r + "/*[$n]"), "");
  EXPECT_EQ(Run(r + "/*[0 - 1]"), "");
  EXPECT_EQ(Run(r + "/*[-2]"), "");
  EXPECT_EQ(Run(r + "/*[number(\"x\")]"), "");
  EXPECT_EQ(Run(r + "/*[99999999999999999999]"), "");
  EXPECT_EQ(Run(r + "/*[last() + 1]"), "");
}

TEST_F(XQueryEvalTest, NameInternedMidEvaluationStillMatches) {
  // The first iteration's step misses `fresh` in the pool; the second
  // iteration's constructor interns it before the same step runs again.
  EXPECT_EQ(Run("for $i in (1, 2) return "
                "(if ($i = 1) then <a/> else <a><fresh/></a>)/fresh"),
            "<fresh/>");
}

TEST_F(XQueryEvalTest, StepNamesResolvePerPool) {
  // One collection, two pools: the second pool interns other names first,
  // so `a` and `b` carry different NameIds in each.
  auto other_pool = std::make_shared<xml::NamePool>();
  for (const char* name : {"x", "y", "z"}) other_pool->Intern(name);
  auto first = xml::ParseXml(pool_, "first", "<a><b>1</b></a>");
  auto second = xml::ParseXml(other_pool, "second", "<a><b>2</b></a>");
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_NE(*pool_->Find("b"), *other_pool->Find("b"));
  resolver_.Add("mixed", *first);
  resolver_.Add("mixed", *second);
  EXPECT_EQ(Run("collection(\"mixed\")/a/b"), "<b>1</b>\n<b>2</b>");
  EXPECT_EQ(Run("collection(\"mixed\")//b"), "<b>1</b>\n<b>2</b>");
}

TEST_F(XQueryEvalTest, FlworBasics) {
  EXPECT_EQ(Run("for $i in (1, 2, 3) return $i * 2"), "2\n4\n6");
  EXPECT_EQ(Run("let $x := 5 return $x + 1"), "6");
  EXPECT_EQ(Run("for $i in (1, 2, 3) where $i > 1 return $i"), "2\n3");
}

TEST_F(XQueryEvalTest, FlworOverCollection) {
  EXPECT_EQ(Run("for $i in collection(\"items\")/Item "
                "where $i/Section = \"CD\" return $i/Name"),
            "<Name>cd one</Name>\n<Name>cd two</Name>");
}

TEST_F(XQueryEvalTest, FlworMultipleClauses) {
  EXPECT_EQ(Run("for $i in (1, 2), $j in (10, 20) return $i + $j"),
            "11\n21\n12\n22");
  EXPECT_EQ(Run("for $i in (1, 2) let $d := $i * 10 return $d"), "10\n20");
}

TEST_F(XQueryEvalTest, NestedFlwor) {
  EXPECT_EQ(Run("for $i in (1, 2) return (for $j in (1, 2) "
                "return $i * $j)"),
            "1\n2\n2\n4");
}

TEST_F(XQueryEvalTest, WhereWithContains) {
  EXPECT_EQ(Run("count(for $i in collection(\"items\")/Item "
                "where contains($i/Description, \"good\") return $i)"),
            "2");
}

TEST_F(XQueryEvalTest, ElementConstruction) {
  EXPECT_EQ(Run("<result>{ 1 + 1 }</result>"), "<result>2</result>");
  EXPECT_EQ(Run("<r a=\"x\"><nested/></r>"), "<r a=\"x\"><nested/></r>");
  EXPECT_EQ(Run("for $i in collection(\"items\")/Item[Code = 1] "
                "return <hit>{ $i/Name }</hit>"),
            "<hit><Name>cd one</Name></hit>");
}

TEST_F(XQueryEvalTest, ConstructedTextJoining) {
  // Adjacent atomized items are joined with a space.
  EXPECT_EQ(Run("<r>{ (1, 2) }</r>"), "<r>1 2</r>");
}

TEST_F(XQueryEvalTest, IfThenElse) {
  EXPECT_EQ(Run("if (1 < 2) then \"yes\" else \"no\""), "yes");
  EXPECT_EQ(Run("if (1 > 2) then \"yes\" else \"no\""), "no");
}

TEST_F(XQueryEvalTest, StringFunctions) {
  EXPECT_EQ(Run("contains(\"hello\", \"ell\")"), "true");
  EXPECT_EQ(Run("starts-with(\"hello\", \"he\")"), "true");
  EXPECT_EQ(Run("string-length(\"hello\")"), "5");
  EXPECT_EQ(Run("concat(\"a\", \"b\", \"c\")"), "abc");
  EXPECT_EQ(Run("string(42)"), "42");
  EXPECT_EQ(Run("number(\"3.5\") + 1"), "4.5");
}

TEST_F(XQueryEvalTest, EmptyExistsDistinct) {
  EXPECT_EQ(Run("empty(())"), "true");
  EXPECT_EQ(Run("exists((1))"), "true");
  EXPECT_EQ(Run("count(distinct-values((1, 2, 2, 1)))"), "2");
  EXPECT_EQ(Run("count(distinct-values(collection(\"items\")"
                "/Item/Section))"),
            "2");
}

TEST_F(XQueryEvalTest, NameFunction) {
  EXPECT_EQ(Run("name(collection(\"items\")/Item[1])"), "Item");
}

TEST_F(XQueryEvalTest, GeneralComparisonOverNodeSets) {
  // Existential semantics: any Item code equals 2.
  EXPECT_EQ(Run("collection(\"items\")/Item/Code = 2"), "true");
  EXPECT_EQ(Run("collection(\"items\")/Item/Code = 99"), "false");
}

TEST_F(XQueryEvalTest, Errors) {
  EXPECT_EQ(RunError("$nope").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunError("collection(\"missing\")").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(RunError("frobnicate(1)").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(RunError("\"a\" + 1").code(), StatusCode::kInvalidArgument);
}

TEST(XQueryParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("for $i in").ok());
  EXPECT_FALSE(ParseQuery("for $i in (1) where").ok());
  EXPECT_FALSE(ParseQuery("let $x = 1 return $x").ok());  // needs :=
  EXPECT_FALSE(ParseQuery("count(1").ok());
  EXPECT_FALSE(ParseQuery("<a>{1}</b>").ok());
  EXPECT_FALSE(ParseQuery("1 +").ok());
  EXPECT_FALSE(ParseQuery("").ok());
}

/// Query text nested `depth` levels deep in each of the parser's
/// recursive shapes: parentheses, unary minus, element constructors.
std::string NestedParens(size_t depth) {
  return std::string(depth, '(') + "1" + std::string(depth, ')');
}
std::string NestedMinus(size_t depth) { return std::string(depth, '-') + "1"; }
std::string NestedCtors(size_t depth) {
  std::string out;
  for (size_t i = 0; i < depth; ++i) out += "<a>";
  out += "1";
  for (size_t i = 0; i < depth; ++i) out += "</a>";
  return out;
}

TEST(XQueryParserTest, DeepNestingIsAParseError) {
  // Without the nesting bound each of these overflows the stack.
  for (const std::string& query :
       {NestedParens(10000), NestedMinus(10000), NestedCtors(10000)}) {
    Result<ExprPtr> ast = ParseQuery(query);
    ASSERT_FALSE(ast.ok()) << query.substr(0, 16);
    EXPECT_EQ(ast.status().code(), StatusCode::kParseError);
    EXPECT_NE(ast.status().message().find("nesting"), std::string::npos)
        << ast.status();
  }
}

TEST_F(XQueryEvalTest, NestingWithinTheBoundParsesAndEvaluates) {
  EXPECT_EQ(Run(NestedParens(256)), "1");
  EXPECT_EQ(Run(NestedMinus(256)), "1");
  EXPECT_EQ(Run(NestedCtors(256)), NestedCtors(256));
}

/// `terms` copies of "1" joined by `op`: an operator chain, which parses
/// into a left-deep tree `terms - 1` levels deep.
std::string OperatorChain(const std::string& op, size_t terms) {
  std::string out = "1";
  for (size_t i = 1; i < terms; ++i) out += op + "1";
  return out;
}

/// One chain per chained operator: `,` (parenthesized), `or`, `and`,
/// additive and multiplicative.
std::vector<std::string> OperatorChains(size_t terms) {
  std::vector<std::string> out = {"(" + OperatorChain(",", terms) + ")"};
  for (const char* op :
       {" or ", " and ", "+", "-", "*", " div ", " mod "}) {
    out.push_back(OperatorChain(op, terms));
  }
  return out;
}

TEST(XQueryParserTest, LongOperatorChainsAreAParseError) {
  // Each link is one tree level: without counting links, a 20,000-term
  // chain parses and then overflows the stack in the recursive AST walks.
  for (const std::string& query : OperatorChains(20000)) {
    Result<ExprPtr> ast = ParseQuery(query);
    ASSERT_FALSE(ast.ok()) << query.substr(0, 16);
    EXPECT_EQ(ast.status().code(), StatusCode::kParseError);
    EXPECT_NE(ast.status().message().find("nesting"), std::string::npos)
        << ast.status();
  }
  // Chains nested in chains add up: 100 parenthesized levels of 100-term
  // chains are 10,000 levels deep although each chain alone is short.
  std::string nested = "1";
  for (int level = 0; level < 100; ++level) {
    nested = "(" + nested + ")" + OperatorChain("+", 100).substr(1);
  }
  Result<ExprPtr> ast = ParseQuery(nested);
  ASSERT_FALSE(ast.ok());
  EXPECT_EQ(ast.status().code(), StatusCode::kParseError);
}

TEST_F(XQueryEvalTest, OperatorChainsWithinTheBoundParseAndEvaluate) {
  const std::vector<std::string> chains = OperatorChains(400);
  const std::vector<std::string> expected = {
      "400", "true", "true", "400", "-398", "1", "1", "0"};
  ASSERT_EQ(chains.size(), expected.size());
  EXPECT_EQ(Run("count(" + chains[0] + ")"), expected[0]);
  for (size_t i = 1; i < chains.size(); ++i) {
    EXPECT_EQ(Run(chains[i]), expected[i]) << chains[i].substr(0, 8);
  }
}

TEST(XQueryParserTest, CommentsAreSkipped) {
  auto ast = ParseQuery("(: hi (: nested :) :) 1 (: bye :) + 2");
  ASSERT_TRUE(ast.ok()) << ast.status();
}

TEST(XQueryParserTest, AstPrintingRoundTrips) {
  const char* queries[] = {
      "for $i in collection(\"c\")/Item where $i/Section = \"CD\" "
      "return $i/Name",
      "count(collection(\"c\")/Item[contains(Description, \"good\")])",
      "<r a=\"1\">{ $x }</r>",
      "if (1 < 2) then \"a\" else \"b\"",
      "sum(for $i in (1, 2) return $i * 2)",
  };
  for (const char* q : queries) {
    auto ast = ParseQuery(q);
    ASSERT_TRUE(ast.ok()) << q << ": " << ast.status();
    std::string printed = ExprToString(**ast);
    auto reparsed = ParseQuery(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << ": " << reparsed.status();
    EXPECT_EQ(ExprToString(**reparsed), printed);
  }
}

TEST(XQueryParserTest, CloneProducesEqualTree) {
  auto ast = ParseQuery(
      "for $i in collection(\"c\")/Item[Code > 3] where "
      "contains($i/Description, \"x\") return <r>{ $i/Name }</r>");
  ASSERT_TRUE(ast.ok());
  ExprPtr clone = CloneExpr(**ast);
  EXPECT_EQ(ExprToString(**ast), ExprToString(*clone));
}

TEST(ItemTest, EffectiveBooleanValue) {
  Sequence empty;
  EXPECT_FALSE(*EffectiveBooleanValue(empty));
  EXPECT_TRUE(*EffectiveBooleanValue({Item(true)}));
  EXPECT_FALSE(*EffectiveBooleanValue({Item(0.0)}));
  EXPECT_TRUE(*EffectiveBooleanValue({Item(std::string("x"))}));
  EXPECT_FALSE(*EffectiveBooleanValue({Item(std::string())}));
  EXPECT_FALSE(EffectiveBooleanValue({Item(1.0), Item(2.0)}).ok());
}

// --- streamed evaluation ---------------------------------------------------

/// 1,000 Item documents whose bodies hold 12 <w> elements each: a FLWOR
/// over them binds 1,000 items, and each binding's `$i//w` visits far
/// more nodes than binding it did.
class EvalStreamTest : public ::testing::Test {
 protected:
  EvalStreamTest() : pool_(std::make_shared<xml::NamePool>()) {
    for (int i = 0; i < 1000; ++i) {
      std::string xml = "<Item><Code>" + std::to_string(i) +
                        "</Code><Name>item " + std::to_string(i) +
                        "</Name><Body>";
      for (int w = 0; w < 12; ++w) xml += "<w>" + std::to_string(w) + "</w>";
      xml += "</Body></Item>";
      auto doc = xml::ParseXml(pool_, "item" + std::to_string(i), xml);
      EXPECT_TRUE(doc.ok()) << doc.status();
      if (doc.ok()) resolver_.Add("c", *doc);
    }
  }

  std::shared_ptr<xml::NamePool> pool_;
  MapResolver resolver_;
};

TEST_F(EvalStreamTest, LeadingForFlworExpandsFirstBlockFirst) {
  constexpr size_t kBlock = 16;
  auto ast = ParseQuery("for $i in collection(\"c\")/Item return $i//w");
  ASSERT_TRUE(ast.ok()) << ast.status();
  Evaluator reference(&resolver_, pool_);
  Result<Sequence> all = reference.Eval(**ast);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), 12'000u);
  const EvalStats& full = reference.stats();

  ThreadPool threads(4);
  for (size_t morsels : {size_t{1}, size_t{4}}) {
    Evaluator eval(&resolver_, pool_);
    eval.set_morsel_parallelism(morsels, &threads);
    auto stream = eval.OpenStream(**ast, kBlock);
    ASSERT_TRUE(stream.ok()) << stream.status();
    // The first batch is the first 16 bindings' items, produced by a
    // small fraction of the whole evaluation's work.
    Sequence batch;
    auto more = (*stream)->Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    ASSERT_TRUE(*more);
    ASSERT_EQ(batch.size(), kBlock * 12) << "morsels=" << morsels;
    EXPECT_EQ(SerializeSequence(batch),
              SerializeSequence(Sequence(all->begin(),
                                         all->begin() + kBlock * 12)));
    EXPECT_LT((*stream)->stats().nodes_visited * 10, full.nodes_visited);
    // The batches concatenate to Eval()'s items, with Eval()'s stats.
    Sequence streamed = std::move(batch);
    for (;;) {
      more = (*stream)->Next(&batch);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      for (Item& item : batch) streamed.push_back(std::move(item));
    }
    EXPECT_EQ(SerializeSequence(streamed), SerializeSequence(*all))
        << "morsels=" << morsels;
    const EvalStats& got = (*stream)->stats();
    EXPECT_EQ(got.nodes_visited, full.nodes_visited);
    EXPECT_EQ(got.collections_resolved, full.collections_resolved);
    EXPECT_EQ(got.elements_constructed, full.elements_constructed);
    EXPECT_EQ(got.index_range_scans, full.index_range_scans);
    EXPECT_EQ(got.index_range_hits, full.index_range_hits);
    EXPECT_EQ(got.morsels > 0, morsels > 1);
  }

  // An error raised by binding 500 reaches the caller after the first
  // block, as the error Eval() returns.
  auto failing = ParseQuery(
      "for $i in collection(\"c\")/Item "
      "return if ($i/Code >= 500) then collection($i/Name) else $i//w");
  ASSERT_TRUE(failing.ok()) << failing.status();
  Evaluator failing_reference(&resolver_, pool_);
  Result<Sequence> failed = failing_reference.Eval(**failing);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("item 500"), std::string::npos)
      << failed.status();
  for (size_t morsels : {size_t{1}, size_t{4}}) {
    Evaluator eval(&resolver_, pool_);
    eval.set_morsel_parallelism(morsels, &threads);
    auto stream = eval.OpenStream(**failing, kBlock);
    ASSERT_TRUE(stream.ok()) << stream.status();
    Sequence batch;
    auto first = (*stream)->Next(&batch);
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(batch.size(), kBlock * 12);
    auto second = (*stream)->Next(&batch);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().ToString(), failed.status().ToString())
        << "morsels=" << morsels;
    auto after = (*stream)->Next(&batch);
    ASSERT_TRUE(after.ok());
    EXPECT_FALSE(*after);
  }
}

}  // namespace
}  // namespace partix::xquery
