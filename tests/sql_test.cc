#include <gtest/gtest.h>

#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace oij {
namespace {

constexpr const char* kPaperQuery = R"sql(
SELECT sum(col2) OVER w1 FROM S
WINDOW w1 AS (
  UNION R
  PARTITION BY key
  ORDER BY timestamp
  ROWS_RANGE BETWEEN 1s PRECEDING AND 1s FOLLOWING);
)sql";

// ------------------------------------------------------------------ lexer

TEST(LexerTest, TokenizesKeywordsCaseInsensitively) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("select Sum FROM window", &tokens).ok());
  ASSERT_EQ(tokens.size(), 5u);  // 4 tokens + EOF
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);  // "Sum" is not a kw
  EXPECT_TRUE(tokens[2].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[3].IsKeyword("WINDOW"));
  EXPECT_EQ(tokens[4].type, TokenType::kEof);
}

TEST(LexerTest, DurationsFoldToMicroseconds) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("1s 150ms 100us 2m 1h 3d", &tokens).ok());
  EXPECT_EQ(tokens[0].value, 1'000'000);
  EXPECT_EQ(tokens[1].value, 150'000);
  EXPECT_EQ(tokens[2].value, 100);
  EXPECT_EQ(tokens[3].value, 120'000'000);
  EXPECT_EQ(tokens[4].value, 3'600'000'000LL);
  EXPECT_EQ(tokens[5].value, 259'200'000'000LL);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kDuration);
  }
}

TEST(LexerTest, BareNumbersStayNumbers) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("1000", &tokens).ok());
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_EQ(tokens[0].value, 1000);
}

TEST(LexerTest, RejectsUnknownUnitAndCharacters) {
  std::vector<Token> tokens;
  EXPECT_FALSE(Tokenize("5parsecs", &tokens).ok());
  EXPECT_FALSE(Tokenize("SELECT @", &tokens).ok());
}

TEST(LexerTest, SkipsLineComments) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("SELECT -- the agg\n sum", &tokens).ok());
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].text, "sum");
}

TEST(LexerTest, PunctuationAndOffsets) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("(a, b);", &tokens).ok());
  EXPECT_EQ(tokens[0].type, TokenType::kLParen);
  EXPECT_EQ(tokens[2].type, TokenType::kComma);
  EXPECT_EQ(tokens[4].type, TokenType::kRParen);
  EXPECT_EQ(tokens[5].type, TokenType::kSemicolon);
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 1u);
}

// ----------------------------------------------------------------- parser

TEST(ParserTest, ParsesThePaperQuery) {
  ParsedQuery q;
  ASSERT_TRUE(ParseQuery(kPaperQuery, &q).ok());
  EXPECT_EQ(q.agg_func, "sum");
  EXPECT_EQ(q.agg_column, "col2");
  EXPECT_EQ(q.base_table, "S");
  EXPECT_EQ(q.probe_table, "R");
  EXPECT_EQ(q.window_name, "w1");
  EXPECT_EQ(q.partition_column, "key");
  EXPECT_EQ(q.order_column, "timestamp");
  EXPECT_EQ(q.preceding.offset_us, 1'000'000);
  EXPECT_EQ(q.following.offset_us, 1'000'000);
  EXPECT_FALSE(q.preceding.current_row);
  EXPECT_EQ(q.lateness_us, -1);
}

TEST(ParserTest, CurrentRowBound) {
  ParsedQuery q;
  ASSERT_TRUE(ParseQuery(
                  "SELECT count(x) OVER w FROM S WINDOW w AS (UNION R "
                  "PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 2s "
                  "PRECEDING AND CURRENT ROW)",
                  &q)
                  .ok());
  EXPECT_TRUE(q.following.current_row);
  EXPECT_EQ(q.following.offset_us, 0);
  EXPECT_EQ(q.preceding.offset_us, 2'000'000);
}

TEST(ParserTest, LatenessExtension) {
  ParsedQuery q;
  ASSERT_TRUE(ParseQuery(
                  "SELECT avg(v) OVER w FROM S WINDOW w AS (UNION R "
                  "PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 1s "
                  "PRECEDING AND CURRENT ROW LATENESS 100ms)",
                  &q)
                  .ok());
  EXPECT_EQ(q.lateness_us, 100'000);
}

TEST(ParserTest, BareNumberBoundDefaultsToMilliseconds) {
  ParsedQuery q;
  ASSERT_TRUE(ParseQuery(
                  "SELECT sum(v) OVER w FROM S WINDOW w AS (UNION R "
                  "PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 1000 "
                  "PRECEDING AND CURRENT ROW)",
                  &q)
                  .ok());
  EXPECT_EQ(q.preceding.offset_us, 1'000'000);
}

TEST(ParserTest, WindowNameMismatchRejected) {
  ParsedQuery q;
  const Status s = ParseQuery(
      "SELECT sum(v) OVER w1 FROM S WINDOW w2 AS (UNION R PARTITION BY k "
      "ORDER BY ts ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)",
      &q);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kParseError);
}

TEST(ParserTest, ErrorsCarryOffsets) {
  ParsedQuery q;
  const Status s = ParseQuery("SELECT sum(v) FROM", &q);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("offset"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  ParsedQuery q;
  EXPECT_FALSE(ParseQuery(
                   "SELECT sum(v) OVER w FROM S WINDOW w AS (UNION R "
                   "PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 1s "
                   "PRECEDING AND CURRENT ROW); extra",
                   &q)
                   .ok());
}

TEST(ParserTest, RejectsMissingPieces) {
  ParsedQuery q;
  EXPECT_FALSE(ParseQuery("", &q).ok());
  EXPECT_FALSE(ParseQuery("SELECT", &q).ok());
  EXPECT_FALSE(ParseQuery(
                   "SELECT sum(v) OVER w FROM S WINDOW w AS (UNION R "
                   "ORDER BY ts ROWS_RANGE BETWEEN 1s PRECEDING AND "
                   "CURRENT ROW)",
                   &q)
                   .ok())
      << "missing PARTITION BY";
}

// ----------------------------------------------------------------- binder

TEST(BinderTest, BindsPaperQueryToSpec) {
  QuerySpec spec;
  ParsedQuery parsed;
  ASSERT_TRUE(CompileQuery(kPaperQuery, &spec, &parsed).ok());
  EXPECT_EQ(spec.agg, AggKind::kSum);
  EXPECT_EQ(spec.window.pre, 1'000'000);
  EXPECT_EQ(spec.window.fol, 1'000'000);
  EXPECT_EQ(spec.lateness_us, 0) << "no LATENESS clause -> in-order";
  EXPECT_EQ(parsed.base_table, "S");
}

TEST(BinderTest, BindsLateness) {
  QuerySpec spec;
  ASSERT_TRUE(CompileQuery(
                  "SELECT count(v) OVER w FROM S WINDOW w AS (UNION R "
                  "PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 500us "
                  "PRECEDING AND CURRENT ROW LATENESS 2s)",
                  &spec)
                  .ok());
  EXPECT_EQ(spec.agg, AggKind::kCount);
  EXPECT_EQ(spec.window.pre, 500);
  EXPECT_EQ(spec.window.fol, 0);
  EXPECT_EQ(spec.lateness_us, 2'000'000);
}

TEST(BinderTest, UnknownAggregateRejected) {
  QuerySpec spec;
  const Status s = CompileQuery(
      "SELECT median(v) OVER w FROM S WINDOW w AS (UNION R PARTITION BY k "
      "ORDER BY ts ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)",
      &spec);
  EXPECT_FALSE(s.ok());
}

TEST(BinderTest, MultiAggregateSelectRejected) {
  // Two features over one window are two standing queries; a second
  // select item must not be dropped silently.
  QuerySpec spec;
  const Status s = CompileQuery(
      "SELECT sum(v), max(v) OVER w FROM S WINDOW w AS (UNION R PARTITION "
      "BY k ORDER BY ts ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)",
      &spec);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kParseError);
  EXPECT_NE(s.message().find("one aggregate per query"), std::string::npos)
      << s.message();
}

TEST(BinderTest, AllAggregatesBind) {
  for (const char* agg : {"sum", "count", "avg", "min", "max"}) {
    QuerySpec spec;
    const std::string sql =
        std::string("SELECT ") + agg +
        "(v) OVER w FROM S WINDOW w AS (UNION R PARTITION BY k ORDER BY "
        "ts ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)";
    EXPECT_TRUE(CompileQuery(sql, &spec).ok()) << agg;
  }
}

}  // namespace
}  // namespace oij
