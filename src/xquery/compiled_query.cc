#include "xquery/compiled_query.h"

#include <utility>

#include "common/clock.h"
#include "xquery/parser.h"

namespace partix::xquery {

Result<CompiledQueryPtr> CompiledQuery::Compile(std::string text) {
  Stopwatch watch;
  PARTIX_ASSIGN_OR_RETURN(ExprPtr ast, ParseQuery(text));
  std::shared_ptr<CompiledQuery> compiled(
      new CompiledQuery(std::move(text), std::move(ast)));
  compiled->compile_ms_ = watch.ElapsedMillis();
  return CompiledQueryPtr(std::move(compiled));
}

CompiledQueryPtr CompiledQuery::FromAst(std::string text, ExprPtr ast) {
  return CompiledQueryPtr(new CompiledQuery(std::move(text), std::move(ast)));
}

}  // namespace partix::xquery
