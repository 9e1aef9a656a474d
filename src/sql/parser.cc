#include "sql/parser.h"

#include <vector>

#include "sql/lexer.h"

namespace oij {

namespace {

/// Token-stream cursor with typed expectation helpers.
class Cursor {
 public:
  explicit Cursor(const std::vector<Token>& tokens) : tokens_(tokens) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_ + 1 < tokens_.size() ? pos_++ : pos_]; }

  bool MatchKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Error(std::string("expected ") + std::string(kw));
  }

  Status ExpectType(TokenType type, const Token** out) {
    if (Peek().type == type) {
      *out = &Advance();
      return Status::OK();
    }
    return Error(std::string("expected ") + std::string(TokenTypeName(type)));
  }

  Status ExpectIdentifier(std::string* out) {
    const Token* tok = nullptr;
    Status s = ExpectType(TokenType::kIdentifier, &tok);
    if (!s.ok()) return s;
    *out = tok->text;
    return Status::OK();
  }

  Status Error(const std::string& what) const {
    return Status::ParseError(what + " but found '" + Peek().text +
                              "' at offset " + std::to_string(Peek().offset));
  }

 private:
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

/// bound := <duration> (PRECEDING | FOLLOWING)
///        | <number>   (PRECEDING | FOLLOWING)   -- bare number: ms
///        | CURRENT ROW
Status ParseBound(Cursor& cur, bool expect_preceding, WindowBound* out) {
  if (cur.MatchKeyword("CURRENT")) {
    Status s = cur.ExpectKeyword("ROW");
    if (!s.ok()) return s;
    out->current_row = true;
    out->offset_us = 0;
    return Status::OK();
  }
  const Token& tok = cur.Peek();
  int64_t us = 0;
  if (tok.type == TokenType::kDuration) {
    us = tok.value;
    cur.Advance();
  } else if (tok.type == TokenType::kNumber) {
    us = tok.value * 1000;  // OpenMLDB ROWS_RANGE default unit: ms
    cur.Advance();
  } else {
    return cur.Error("expected window bound");
  }
  Status s = cur.ExpectKeyword(expect_preceding ? "PRECEDING" : "FOLLOWING");
  if (!s.ok()) return s;
  out->offset_us = us;
  out->current_row = false;
  return Status::OK();
}

Status ParseWindowDefinition(Cursor& cur, ParsedQuery* out) {
  Status s = cur.ExpectKeyword("UNION");
  if (!s.ok()) return s;
  s = cur.ExpectIdentifier(&out->probe_table);
  if (!s.ok()) return s;

  s = cur.ExpectKeyword("PARTITION");
  if (!s.ok()) return s;
  s = cur.ExpectKeyword("BY");
  if (!s.ok()) return s;
  s = cur.ExpectIdentifier(&out->partition_column);
  if (!s.ok()) return s;

  s = cur.ExpectKeyword("ORDER");
  if (!s.ok()) return s;
  s = cur.ExpectKeyword("BY");
  if (!s.ok()) return s;
  s = cur.ExpectIdentifier(&out->order_column);
  if (!s.ok()) return s;

  s = cur.ExpectKeyword("ROWS_RANGE");
  if (!s.ok()) return s;
  s = cur.ExpectKeyword("BETWEEN");
  if (!s.ok()) return s;
  s = ParseBound(cur, /*expect_preceding=*/true, &out->preceding);
  if (!s.ok()) return s;
  s = cur.ExpectKeyword("AND");
  if (!s.ok()) return s;
  s = ParseBound(cur, /*expect_preceding=*/false, &out->following);
  if (!s.ok()) return s;

  // Streaming extension: LATENESS <duration>.
  if (cur.MatchKeyword("LATENESS")) {
    const Token* tok = nullptr;
    if (cur.Peek().type == TokenType::kDuration) {
      s = cur.ExpectType(TokenType::kDuration, &tok);
      if (!s.ok()) return s;
      out->lateness_us = tok->value;
    } else {
      s = cur.ExpectType(TokenType::kNumber, &tok);
      if (!s.ok()) return s;
      out->lateness_us = tok->value * 1000;
    }
  }
  return Status::OK();
}

}  // namespace

Status ParseQuery(std::string_view sql, ParsedQuery* out) {
  *out = ParsedQuery{};
  std::vector<Token> tokens;
  Status s = Tokenize(sql, &tokens);
  if (!s.ok()) return s;
  Cursor cur(tokens);

  // SELECT <agg>(<col>) OVER <w> FROM <base>
  s = cur.ExpectKeyword("SELECT");
  if (!s.ok()) return s;
  const Token* tok = nullptr;
  s = cur.ExpectIdentifier(&out->agg_func);
  if (!s.ok()) return s;
  s = cur.ExpectType(TokenType::kLParen, &tok);
  if (!s.ok()) return s;
  s = cur.ExpectIdentifier(&out->agg_column);
  if (!s.ok()) return s;
  s = cur.ExpectType(TokenType::kRParen, &tok);
  if (!s.ok()) return s;
  if (cur.Peek().type == TokenType::kComma) {
    // Several features over one window are several standing queries.
    return cur.Error("expected OVER (one aggregate per query)");
  }
  s = cur.ExpectKeyword("OVER");
  if (!s.ok()) return s;
  s = cur.ExpectIdentifier(&out->window_name);
  if (!s.ok()) return s;
  s = cur.ExpectKeyword("FROM");
  if (!s.ok()) return s;
  s = cur.ExpectIdentifier(&out->base_table);
  if (!s.ok()) return s;

  // WINDOW <w> AS ( ... )
  s = cur.ExpectKeyword("WINDOW");
  if (!s.ok()) return s;
  std::string window_name;
  s = cur.ExpectIdentifier(&window_name);
  if (!s.ok()) return s;
  if (window_name != out->window_name) {
    return Status::ParseError("window '" + window_name +
                              "' does not match OVER clause '" +
                              out->window_name + "'");
  }
  s = cur.ExpectKeyword("AS");
  if (!s.ok()) return s;
  s = cur.ExpectType(TokenType::kLParen, &tok);
  if (!s.ok()) return s;
  s = ParseWindowDefinition(cur, out);
  if (!s.ok()) return s;
  s = cur.ExpectType(TokenType::kRParen, &tok);
  if (!s.ok()) return s;

  if (cur.Peek().type == TokenType::kSemicolon) cur.Advance();
  if (cur.Peek().type != TokenType::kEof) {
    return cur.Error("expected end of query");
  }
  return Status::OK();
}

}  // namespace oij
