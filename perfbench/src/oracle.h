// Answer oracles: every response the benchmark receives is checked against
// references computed in-process with DirectEval (the worst-case-optimal
// join baseline) over the same generated Database.
//
// A reference is a digest of the answer's row multiset: the row count plus
// the wrapping sum of a strong 64-bit hash per row. It is independent of
// row order (structures may stream in different orders), and one altered,
// missing or duplicated row changes it except with probability ~2^-64.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relational/database.h"
#include "util/status.h"

namespace perfbench {

using cqc::Value;

struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(const Value* row, int arity);
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

/// Digest of `values` read as rows of `arity` values.
Digest DigestRows(const std::vector<Value>& values, int arity);

/// Exact per-key references for a view with one bound variable.
class KeyOracle {
 public:
  /// Evaluates `view_text` with DirectEval over `db` for every key in
  /// `keys`, on up to `threads` threads.
  static cqc::Result<KeyOracle> Build(const std::string& view_text,
                                      const cqc::Database& db,
                                      const std::vector<Value>& keys,
                                      int threads);

  int arity() const { return arity_; }
  /// Null when `key` was not among the oracle's keys.
  const Digest* Find(Value key) const;
  /// True iff `values` (rows of arity()) is exactly the answer for `key`.
  bool Check(Value key, const std::vector<Value>& values) const;

 private:
  int arity_ = 0;
  std::unordered_map<Value, Digest> digests_;
};

/// Checks reads of Q(x,y,z) = R1(x,y), R2(y,z) while writers toggle R2
/// edges from a known pool whose targets lie outside the base node domain.
/// A response for `x` must hold the base rows exactly (targets inside the
/// domain), and every extra row must be a join of R1(x,y) with a pool edge
/// (y,z), each at most once.
class ToggleOracle {
 public:
  ToggleOracle(KeyOracle base, const cqc::Database& db, Value domain_max,
               const std::vector<std::pair<Value, Value>>& pool);
  bool Check(Value x, const std::vector<Value>& values) const;

 private:
  KeyOracle base_;
  Value domain_max_;
  std::unordered_set<uint64_t> r1_;    // packed (x, y)
  std::unordered_set<uint64_t> pool_;  // packed (y, z)
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
