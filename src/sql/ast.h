#ifndef OIJ_SQL_AST_H_
#define OIJ_SQL_AST_H_

#include <cstdint>
#include <string>

namespace oij {

/// Window bound: a relative offset in microseconds, or CURRENT ROW (0).
struct WindowBound {
  int64_t offset_us = 0;
  bool current_row = false;
};

/// Parse result of one window-union OIJ query, e.g.
///
///   SELECT sum(col2) OVER w1 FROM S
///   WINDOW w1 AS (
///     UNION R
///     PARTITION BY key ORDER BY timestamp
///     ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW
///     LATENESS 100ms);
///
/// LATENESS is this library's streaming extension (OpenMLDB's batch SQL
/// has no disorder bound; a streaming OIJ needs one — Section II-B).
/// The select list holds exactly one aggregate: several features over
/// one window are several standing queries (JoinEngine::AddQuery).
struct ParsedQuery {
  std::string agg_func;     ///< SELECT <agg_func>(<agg_column>)
  std::string agg_column;
  std::string base_table;   ///< FROM <base>   (stream S)
  std::string window_name;  ///< OVER <name> == WINDOW <name>
  std::string probe_table;  ///< UNION <probe> (stream R)
  std::string partition_column;
  std::string order_column;
  WindowBound preceding;
  WindowBound following;
  int64_t lateness_us = -1;  ///< -1: not specified
};

}  // namespace oij

#endif  // OIJ_SQL_AST_H_
