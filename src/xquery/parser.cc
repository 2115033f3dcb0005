#include "xquery/parser.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace partix::xquery {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.' || c == ':';
}

/// Scannerless recursive-descent parser. The lexical grammar of XQuery is
/// context-sensitive ('<' starts either a comparison or an element
/// constructor; '*' is either a wildcard or multiplication), which a
/// scannerless parser resolves naturally by position.
class QueryParser {
 public:
  explicit QueryParser(std::string_view text) : text_(text) {}

  Result<ExprPtr> Parse() {
    PARTIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSequence());
    SkipWs();
    if (!AtEnd()) return Error("unexpected trailing content");
    return e;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek(size_t off = 0) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }

  void SkipWs() {
    while (!AtEnd()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '(' && Peek(1) == ':') {
        // XQuery comment (: ... :), nestable.
        int depth = 0;
        while (pos_ < text_.size()) {
          if (Peek() == '(' && Peek(1) == ':') {
            ++depth;
            pos_ += 2;
          } else if (Peek() == ':' && Peek(1) == ')') {
            --depth;
            pos_ += 2;
            if (depth == 0) break;
          } else {
            ++pos_;
          }
        }
      } else {
        break;
      }
    }
  }

  Status Error(std::string_view msg) const {
    size_t line = 1;
    size_t col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::ParseError(std::string(msg) + " at line " +
                              std::to_string(line) + ", column " +
                              std::to_string(col));
  }

  bool ConsumeChar(char c) {
    SkipWs();
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeSeq(std::string_view seq) {
    SkipWs();
    if (text_.substr(pos_, seq.size()) != seq) return false;
    pos_ += seq.size();
    return true;
  }

  /// Consumes `word` only at a word boundary (not a prefix of a longer
  /// name).
  bool ConsumeKeyword(std::string_view word) {
    SkipWs();
    if (text_.substr(pos_, word.size()) != word) return false;
    char after = pos_ + word.size() < text_.size()
                     ? text_[pos_ + word.size()]
                     : '\0';
    if (IsNameChar(after)) return false;
    pos_ += word.size();
    return true;
  }

  bool PeekKeyword(std::string_view word) {
    size_t save = pos_;
    bool ok = ConsumeKeyword(word);
    pos_ = save;
    return ok;
  }

  Result<std::string> ParseName() {
    SkipWs();
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<std::string> ParseStringLiteral() {
    SkipWs();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected a string literal");
    }
    char quote = Peek();
    ++pos_;
    std::string out;
    while (!AtEnd() && Peek() != quote) {
      out.push_back(Peek());
      ++pos_;
    }
    if (AtEnd()) return Error("unterminated string literal");
    ++pos_;
    return out;
  }

  // ---- Expression grammar ----

  Result<ExprPtr> ParseExprSequence() {
    ChainDepth chain = BeginChain();
    PARTIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseExprSingle());
    while (ConsumeChar(',')) {
      PARTIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExprSingle());
      if (!Link(&chain)) return NestingError();
      lhs = MakeExpr(BinaryOp{BinaryOp::Op::kComma, std::move(lhs),
                              std::move(rhs)});
    }
    EndChain(chain);
    return lhs;
  }

  /// The frame of this production is on the stack once per nesting
  /// level, so the rarely taken FLWOR, if and quantified productions stay
  /// out of line (noinline): inlined, their locals would be paid at every
  /// level, and 512 levels must fit an 8 MiB stack in sanitizer builds.
  Result<ExprPtr> ParseExprSingle() {
    return Nested([this]() -> Result<ExprPtr> {
      SkipWs();
      if (PeekKeyword("for") || PeekKeyword("let")) return ParseFlwor();
      if (PeekKeyword("if")) return ParseIf();
      if (PeekKeyword("some") || PeekKeyword("every")) {
        return ParseQuantified();
      }
      return ParseOr();
    });
  }

  /// Runs `parse` one nesting level deeper. Every nested sub-expression
  /// (parentheses, predicates, arguments, clauses, enclosed expressions)
  /// enters through ParseExprSingle; unary minus and nested element
  /// constructors recurse directly. Past kMaxDepth levels the query is a
  /// parse error rather than a stack overflow.
  template <typename ParseFn>
  Result<ExprPtr> Nested(ParseFn parse) {
    if (depth_ >= kMaxDepth) return NestingError();
    ++depth_;
    peak_ = std::max(peak_, depth_);
    Result<ExprPtr> out = parse();
    --depth_;
    return out;
  }

  /// Operator chains (`,`, `or`, `and`, additive, multiplicative) parse
  /// in a loop that Nested never sees, into a left-deep tree: N links over
  /// operands nested up to D levels make a tree N + D levels deep. So each
  /// link counts one level against the nesting budget on top of the
  /// deepest operand (`peak_`), and the chain's full depth carries out to
  /// whatever encloses it. A chain brackets its loop with BeginChain /
  /// EndChain and calls Link after each right operand.
  struct ChainDepth {
    size_t outer_peak = 0;
    size_t links = 0;
  };

  ChainDepth BeginChain() {
    ChainDepth chain{peak_, 0};
    peak_ = depth_;
    return chain;
  }

  /// Counts one more link; false once the chain outgrows the budget.
  bool Link(ChainDepth* chain) {
    return peak_ + ++chain->links <= kMaxDepth;
  }

  Status NestingError() const {
    return Error("query nesting exceeds the supported depth");
  }

  void EndChain(const ChainDepth& chain) {
    peak_ = std::max(chain.outer_peak, peak_ + chain.links);
  }

  [[gnu::noinline]] Result<ExprPtr> ParseQuantified() {
    QuantifiedExpr quantified;
    if (ConsumeKeyword("every")) {
      quantified.is_every = true;
    } else if (!ConsumeKeyword("some")) {
      return Error("expected 'some' or 'every'");
    }
    while (true) {
      if (!ConsumeChar('$')) return Error("expected '$variable'");
      PARTIX_ASSIGN_OR_RETURN(std::string var, ParseName());
      if (!ConsumeKeyword("in")) return Error("expected 'in'");
      PARTIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingle());
      quantified.bindings.push_back(
          ForLetClause{false, std::move(var), std::move(e)});
      if (!ConsumeChar(',')) break;
    }
    if (!ConsumeKeyword("satisfies")) return Error("expected 'satisfies'");
    PARTIX_ASSIGN_OR_RETURN(quantified.satisfies, ParseExprSingle());
    return MakeExpr(std::move(quantified));
  }

  [[gnu::noinline]] Result<ExprPtr> ParseFlwor() {
    FlworExpr flwor;
    while (true) {
      bool is_let;
      if (ConsumeKeyword("for")) {
        is_let = false;
      } else if (ConsumeKeyword("let")) {
        is_let = true;
      } else {
        break;
      }
      // One keyword introduces one or more comma-separated bindings.
      while (true) {
        if (!ConsumeChar('$')) return Error("expected '$variable'");
        PARTIX_ASSIGN_OR_RETURN(std::string var, ParseName());
        if (is_let) {
          if (!ConsumeSeq(":=")) return Error("expected ':=' in let");
        } else {
          if (!ConsumeKeyword("in")) return Error("expected 'in' in for");
        }
        PARTIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSingle());
        flwor.clauses.push_back(
            ForLetClause{is_let, std::move(var), std::move(e)});
        if (!ConsumeChar(',')) break;
      }
    }
    if (flwor.clauses.empty()) return Error("expected for/let clause");
    if (ConsumeKeyword("where")) {
      PARTIX_ASSIGN_OR_RETURN(flwor.where, ParseExprSingle());
    }
    if (ConsumeKeyword("order")) {
      if (!ConsumeKeyword("by")) return Error("expected 'by' after order");
      PARTIX_ASSIGN_OR_RETURN(flwor.order_by, ParseExprSingle());
      if (ConsumeKeyword("descending")) {
        flwor.order_descending = true;
      } else {
        (void)ConsumeKeyword("ascending");
      }
    }
    if (!ConsumeKeyword("return")) return Error("expected 'return'");
    PARTIX_ASSIGN_OR_RETURN(flwor.ret, ParseExprSingle());
    return MakeExpr(std::move(flwor));
  }

  [[gnu::noinline]] Result<ExprPtr> ParseIf() {
    if (!ConsumeKeyword("if")) return Error("expected 'if'");
    if (!ConsumeChar('(')) return Error("expected '(' after if");
    PARTIX_ASSIGN_OR_RETURN(ExprPtr cond, ParseExprSequence());
    if (!ConsumeChar(')')) return Error("expected ')' after if condition");
    if (!ConsumeKeyword("then")) return Error("expected 'then'");
    PARTIX_ASSIGN_OR_RETURN(ExprPtr then_branch, ParseExprSingle());
    if (!ConsumeKeyword("else")) return Error("expected 'else'");
    PARTIX_ASSIGN_OR_RETURN(ExprPtr else_branch, ParseExprSingle());
    return MakeExpr(IfExpr{std::move(cond), std::move(then_branch),
                           std::move(else_branch)});
  }

  Result<ExprPtr> ParseOr() {
    ChainDepth chain = BeginChain();
    PARTIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeKeyword("or")) {
      PARTIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      if (!Link(&chain)) return NestingError();
      lhs = MakeExpr(
          BinaryOp{BinaryOp::Op::kOr, std::move(lhs), std::move(rhs)});
    }
    EndChain(chain);
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ChainDepth chain = BeginChain();
    PARTIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
    while (ConsumeKeyword("and")) {
      PARTIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
      if (!Link(&chain)) return NestingError();
      lhs = MakeExpr(
          BinaryOp{BinaryOp::Op::kAnd, std::move(lhs), std::move(rhs)});
    }
    EndChain(chain);
    return lhs;
  }

  Result<ExprPtr> ParseComparison() {
    PARTIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    SkipWs();
    BinaryOp::Op op;
    if (ConsumeSeq("!=")) {
      op = BinaryOp::Op::kNe;
    } else if (ConsumeSeq("<=")) {
      op = BinaryOp::Op::kLe;
    } else if (ConsumeSeq(">=")) {
      op = BinaryOp::Op::kGe;
    } else if (ConsumeSeq("=")) {
      op = BinaryOp::Op::kEq;
    } else if (!AtEnd() && Peek() == '<' && Peek(1) != '/' &&
               !IsNameStart(Peek(1)) && ConsumeSeq("<")) {
      op = BinaryOp::Op::kLt;
    } else if (ConsumeSeq(">")) {
      op = BinaryOp::Op::kGt;
    } else {
      return lhs;
    }
    PARTIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return MakeExpr(BinaryOp{op, std::move(lhs), std::move(rhs)});
  }

  Result<ExprPtr> ParseAdditive() {
    ChainDepth chain = BeginChain();
    PARTIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      SkipWs();
      BinaryOp::Op op;
      if (ConsumeChar('+')) {
        op = BinaryOp::Op::kAdd;
      } else if (!AtEnd() && Peek() == '-' && ConsumeChar('-')) {
        op = BinaryOp::Op::kSub;
      } else {
        EndChain(chain);
        return lhs;
      }
      PARTIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      if (!Link(&chain)) return NestingError();
      lhs = MakeExpr(BinaryOp{op, std::move(lhs), std::move(rhs)});
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    ChainDepth chain = BeginChain();
    PARTIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      SkipWs();
      BinaryOp::Op op;
      if (!AtEnd() && Peek() == '*' && ConsumeChar('*')) {
        op = BinaryOp::Op::kMul;
      } else if (ConsumeKeyword("div")) {
        op = BinaryOp::Op::kDiv;
      } else if (ConsumeKeyword("mod")) {
        op = BinaryOp::Op::kMod;
      } else {
        EndChain(chain);
        return lhs;
      }
      PARTIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      if (!Link(&chain)) return NestingError();
      lhs = MakeExpr(BinaryOp{op, std::move(lhs), std::move(rhs)});
    }
  }

  Result<ExprPtr> ParseUnary() {
    SkipWs();
    if (!AtEnd() && Peek() == '-') {
      ++pos_;
      PARTIX_ASSIGN_OR_RETURN(ExprPtr operand,
                              Nested([this] { return ParseUnary(); }));
      return MakeExpr(UnaryMinus{std::move(operand)});
    }
    return ParsePathExpr();
  }

  /// Parses a primary expression and any trailing path steps.
  Result<ExprPtr> ParsePathExpr() {
    SkipWs();
    if (AtEnd()) return Error("unexpected end of query");

    // Absolute path: starts with '/' or '//'.
    if (Peek() == '/') {
      PathExpr path;
      path.source = nullptr;
      PARTIX_RETURN_IF_ERROR(ParseSteps(&path.steps));
      return MakeExpr(std::move(path));
    }

    PARTIX_ASSIGN_OR_RETURN(ExprPtr primary, ParsePrimary());
    SkipWs();
    if (AtEnd() || Peek() != '/') return primary;

    PathExpr path;
    path.source = std::move(primary);
    PARTIX_RETURN_IF_ERROR(ParseSteps(&path.steps));
    return MakeExpr(std::move(path));
  }

  Status ParseSteps(std::vector<AxisStep>* steps) {
    while (true) {
      SkipWs();
      if (AtEnd() || Peek() != '/') return Status::Ok();
      ++pos_;
      AxisStep step;
      if (!AtEnd() && Peek() == '/') {
        step.step.axis = xpath::Axis::kDescendant;
        ++pos_;
      }
      SkipWs();
      if (!AtEnd() && Peek() == '@') {
        step.step.is_attribute = true;
        ++pos_;
      }
      if (!AtEnd() && Peek() == '*') {
        step.step.wildcard = true;
        ++pos_;
      } else {
        PARTIX_ASSIGN_OR_RETURN(step.step.name, ParseName());
      }
      // Bracketed predicates.
      while (ConsumeChar('[')) {
        PARTIX_ASSIGN_OR_RETURN(ExprPtr pred, ParseExprSequence());
        if (!ConsumeChar(']')) return Error("expected ']'");
        step.predicates.push_back(std::move(pred));
      }
      steps->push_back(std::move(step));
    }
  }

  Result<ExprPtr> ParsePrimary() {
    SkipWs();
    if (AtEnd()) return Error("unexpected end of query");
    char c = Peek();

    if (c == '"' || c == '\'') {
      PARTIX_ASSIGN_OR_RETURN(std::string s, ParseStringLiteral());
      return MakeExpr(StringLit{std::move(s)});
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                          Peek() == '.')) {
        ++pos_;
      }
      double value = 0.0;
      if (!ParseDouble(text_.substr(start, pos_ - start), &value)) {
        return Error("malformed number");
      }
      return MakeExpr(NumberLit{value});
    }
    if (c == '$') {
      ++pos_;
      PARTIX_ASSIGN_OR_RETURN(std::string name, ParseName());
      return MakeExpr(VarRef{std::move(name)});
    }
    if (c == '.') {
      ++pos_;
      return MakeExpr(ContextItem{});
    }
    if (c == '(') {
      ++pos_;
      if (ConsumeChar(')')) {
        // Empty sequence: model as an empty FunctionCall marker.
        return MakeExpr(FunctionCall{"empty-sequence", {}});
      }
      PARTIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSequence());
      if (!ConsumeChar(')')) return Error("expected ')'");
      return e;
    }
    if (c == '<' && IsNameStart(Peek(1))) {
      return ParseElementCtor();
    }
    if (IsNameStart(c)) {
      // Keyword expressions were handled by callers; here a name is either
      // a function call or a relative child-step path.
      size_t save = pos_;
      PARTIX_ASSIGN_OR_RETURN(std::string name, ParseName());
      SkipWs();
      if (!AtEnd() && Peek() == '(') {
        ++pos_;
        FunctionCall call;
        call.name = std::move(name);
        if (!ConsumeChar(')')) {
          while (true) {
            PARTIX_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
            call.args.push_back(std::move(arg));
            if (ConsumeChar(',')) continue;
            if (ConsumeChar(')')) break;
            return Error("expected ',' or ')' in function arguments");
          }
        }
        return MakeExpr(std::move(call));
      }
      // Relative path step from the context item.
      pos_ = save;
      PathExpr path;
      path.source = MakeExpr(ContextItem{});
      AxisStep step;
      PARTIX_ASSIGN_OR_RETURN(step.step.name, ParseName());
      while (ConsumeChar('[')) {
        PARTIX_ASSIGN_OR_RETURN(ExprPtr pred, ParseExprSequence());
        if (!ConsumeChar(']')) return Error("expected ']'");
        step.predicates.push_back(std::move(pred));
      }
      path.steps.push_back(std::move(step));
      return MakeExpr(std::move(path));
    }
    if (c == '@') {
      // Relative attribute step from the context item.
      ++pos_;
      PathExpr path;
      path.source = MakeExpr(ContextItem{});
      AxisStep step;
      step.step.is_attribute = true;
      if (!AtEnd() && Peek() == '*') {
        step.step.wildcard = true;
        ++pos_;
      } else {
        PARTIX_ASSIGN_OR_RETURN(step.step.name, ParseName());
      }
      path.steps.push_back(std::move(step));
      return MakeExpr(std::move(path));
    }
    return Error("unexpected character in expression");
  }

  Result<ExprPtr> ParseElementCtor() {
    if (!ConsumeChar('<')) return Error("expected '<'");
    PARTIX_ASSIGN_OR_RETURN(std::string name, ParseName());
    ElementCtor ctor;
    ctor.name = std::move(name);
    // Attributes (literal values only in this subset).
    while (true) {
      SkipWs();
      if (AtEnd()) return Error("unterminated element constructor");
      if (Peek() == '>' || Peek() == '/') break;
      PARTIX_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      if (!ConsumeChar('=')) return Error("expected '=' after attribute");
      PARTIX_ASSIGN_OR_RETURN(std::string attr_value, ParseStringLiteral());
      ctor.attributes.emplace_back(std::move(attr_name),
                                   std::move(attr_value));
    }
    if (ConsumeChar('/')) {
      if (!ConsumeChar('>')) return Error("expected '>'");
      return MakeExpr(std::move(ctor));
    }
    if (!ConsumeChar('>')) return Error("expected '>'");
    // Content: raw text, enclosed {expr}, nested elements.
    std::string text_run;
    auto flush_text = [&]() {
      // Whitespace-only runs between constructs are boundary whitespace;
      // drop them (matches XQuery default).
      if (!StripWhitespace(text_run).empty()) {
        ctor.content.push_back(MakeExpr(StringLit{text_run}));
        ctor.content_is_literal_text.push_back(true);
      }
      text_run.clear();
    };
    while (true) {
      if (AtEnd()) return Error("unterminated element content");
      char ch = Peek();
      if (ch == '{') {
        flush_text();
        ++pos_;
        PARTIX_ASSIGN_OR_RETURN(ExprPtr e, ParseExprSequence());
        if (!ConsumeChar('}')) return Error("expected '}'");
        ctor.content.push_back(std::move(e));
        ctor.content_is_literal_text.push_back(false);
        continue;
      }
      if (ch == '<') {
        if (Peek(1) == '/') {
          flush_text();
          pos_ += 2;
          PARTIX_ASSIGN_OR_RETURN(std::string end_name, ParseName());
          if (end_name != ctor.name) {
            return Error("mismatched constructor end tag </" + end_name +
                         ">");
          }
          if (!ConsumeChar('>')) return Error("expected '>'");
          return MakeExpr(std::move(ctor));
        }
        flush_text();
        PARTIX_ASSIGN_OR_RETURN(
            ExprPtr child, Nested([this] { return ParseElementCtor(); }));
        ctor.content.push_back(std::move(child));
        ctor.content_is_literal_text.push_back(false);
        continue;
      }
      text_run.push_back(ch);
      ++pos_;
    }
  }

  /// Maximum nesting depth, as in xml/parser.cc: bounds the stack of
  /// this descent and of the recursive AST walks downstream. Operator
  /// chains count too: each link of a `,`, `or`, `and`, additive or
  /// multiplicative chain is one level (the chain parses into a
  /// left-deep tree), so a query may chain and nest at most 512 levels in
  /// total — a 400-term `1+1+…` evaluates, a 20,000-term one is a parse
  /// error instead of a stack overflow in the evaluator.
  static constexpr size_t kMaxDepth = 512;

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
  /// Deepest level the current chain's operands reached (see ChainDepth).
  size_t peak_ = 0;
};

}  // namespace

namespace {
thread_local uint64_t t_parse_count = 0;
}  // namespace

Result<ExprPtr> ParseQuery(std::string_view text) {
  ++t_parse_count;
  QueryParser parser(text);
  return parser.Parse();
}

uint64_t ThreadParseCount() { return t_parse_count; }

}  // namespace partix::xquery
