// The input element of top-k range reporting.

#ifndef TOKRA_UTIL_POINT_H_
#define TOKRA_UTIL_POINT_H_

#include <string>

namespace tokra {

/// A 1-d point with a real-valued score, i.e. one element e of the input set
/// S with score(e). Geometrically the 2-d point (x, score) of the paper's
/// Section 2. Scores are assumed distinct (the paper's standard assumption);
/// the public API rejects duplicate scores.
struct Point {
  double x = 0;
  double score = 0;

  bool operator==(const Point& o) const { return x == o.x && score == o.score; }

  std::string ToString() const {
    return std::string("(") + std::to_string(x) + ", " +
           std::to_string(score) + ")";
  }
};

/// Orders by score descending — the order in which top-k results rank.
struct ByScoreDesc {
  bool operator()(const Point& a, const Point& b) const {
    return a.score > b.score;
  }
};

/// Orders by x ascending.
struct ByXAsc {
  bool operator()(const Point& a, const Point& b) const { return a.x < b.x; }
};

}  // namespace tokra

#endif  // TOKRA_UTIL_POINT_H_
