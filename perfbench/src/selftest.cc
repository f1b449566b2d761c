#include "selftest.h"

#include <cmath>
#include <string>
#include <vector>

#include "baseline/direct_eval.h"
#include "oracle.h"
#include "query/parser.h"
#include "trace.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using cqc::Status;

constexpr const char* kView = "Q^bff(x,y,z) = R1(x,y), R2(y,z)";

Status Expect(bool cond, const std::string& what) {
  return cond ? Status::Ok() : Status::Error("self-test: " + what);
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-6; }

/// The rows DirectEval returns for `key`, flattened.
std::vector<Value> Answer(const cqc::Database& db, Value key) {
  auto view = cqc::ParseAdornedView(kView);
  auto eval = cqc::DirectEval::Build(view.value(), db);
  auto stream = eval.value()->Answer({key});
  std::vector<Value> out;
  cqc::Tuple t;
  while (stream->Next(&t)) out.insert(out.end(), t.begin(), t.end());
  return out;
}

Status OracleTest() {
  cqc::Database db;
  cqc::MakePathRelations(db, "R", 2, /*num_nodes=*/12, /*edges=*/50, 5);
  std::vector<Value> keys;
  for (Value v = 1; v <= 12; ++v) keys.push_back(v);
  auto oracle = KeyOracle::Build(kView, db, keys, 2);
  if (!oracle.ok()) return oracle.status();
  const KeyOracle& o = oracle.value();

  // A key with at least two rows, so dropping one leaves a non-empty answer.
  Value key = 0;
  std::vector<Value> rows;
  for (Value k : keys) {
    rows = Answer(db, k);
    if (rows.size() >= 4) {
      key = k;
      break;
    }
  }
  if (Status s = Expect(key != 0, "no key with two rows"); !s.ok()) return s;
  std::vector<Value> altered = rows;
  altered[1] += 1;
  std::vector<Value> missing(rows.begin() + 2, rows.end());
  std::vector<Value> reordered(rows.begin() + 2, rows.end());
  reordered.insert(reordered.end(), rows.begin(), rows.begin() + 2);
  for (const auto& [ok, what] :
       {std::pair{o.Check(key, rows), "accepts the exact answer"},
        std::pair{o.Check(key, reordered), "accepts a reordered answer"},
        std::pair{!o.Check(key, altered), "rejects one altered row"},
        std::pair{!o.Check(key, missing), "rejects one missing row"},
        std::pair{!o.Check(key + 100, rows), "rejects an unknown key"}})
    if (Status s = Expect(ok, std::string("exact oracle ") + what); !s.ok())
      return s;

  // Toggle oracle: an extra row must join R1(key, y) with a pool edge.
  const Value y = rows[0];
  const std::vector<std::pair<Value, Value>> pool = {{y, 1000}, {y, 1001}};
  ToggleOracle toggle(o, db, /*domain_max=*/12, pool);
  std::vector<Value> with_extra = rows;
  with_extra.insert(with_extra.end(), {y, 1000});
  std::vector<Value> stray = rows;
  stray.insert(stray.end(), {y, 1002});
  std::vector<Value> doubled = with_extra;
  doubled.insert(doubled.end(), {y, 1000});
  std::vector<Value> extra_missing(with_extra.begin() + 2, with_extra.end());
  std::vector<Value> extra_altered = with_extra;
  extra_altered[1] += 1;
  for (const auto& [ok, what] :
       {std::pair{toggle.Check(key, rows), "accepts the base answer"},
        std::pair{toggle.Check(key, with_extra), "accepts a pool join"},
        std::pair{!toggle.Check(key, stray), "rejects a non-pool row"},
        std::pair{!toggle.Check(key, doubled), "rejects a duplicate row"},
        std::pair{!toggle.Check(key, extra_missing), "rejects a missing row"},
        std::pair{!toggle.Check(key, extra_altered),
                  "rejects one altered row"}})
    if (Status s = Expect(ok, std::string("toggle oracle ") + what); !s.ok())
      return s;
  return Status::Ok();
}

Status SpanTest() {
  // request 1: root [0,100]us with children A [10,40] and B [30,60]
  // (overlapping: they cover 50us together) and A's child C [15,20].
  // request 2: root [200,230] with child A [205,215].
  std::vector<Span> spans = {
      {"root", 1, -1, 0, 100'000},      {"A", 1, 0, 10'000, 40'000},
      {"B", 1, 0, 30'000, 60'000},      {"C", 1, 1, 15'000, 20'000},
      {"root", 2, -1, 200'000, 230'000}, {"A", 2, 4, 205'000, 215'000},
  };
  const auto r = ReduceSpans(spans);
  const LayerTime& root = r.at("root");
  const LayerTime& a = r.at("A");
  const LayerTime& b = r.at("B");
  const LayerTime& c = r.at("C");
  for (const auto& [ok, what] :
       {std::pair{root.count == 2 && Near(root.incl_us, 130),
                  "root inclusive time"},
        std::pair{Near(root.self_us, 50 + 20), "root self time"},
        std::pair{Near(a.self_us, 25 + 10) && Near(a.mean_incl_us(), 20),
                  "A self time"},
        std::pair{Near(b.self_us, 30), "B self time"},
        std::pair{Near(c.self_us, 5), "leaf self time"},
        std::pair{Near(ResidualUs(root.mean_incl_us(),
                                  {a.mean_incl_us(), b.mean_incl_us() / 2}),
                       65 - 20 - 15),
                  "residual"},
        std::pair{Near(Percentile({1, 2, 3, 4, 5}, 50), 3) &&
                      Near(Percentile({1, 2}, 99), 1.99),
                  "percentile"}})
    if (Status s = Expect(ok, what); !s.ok()) return s;
  return Status::Ok();
}

}  // namespace

Status RunSelfTest() {
  if (Status s = OracleTest(); !s.ok()) return s;
  return SpanTest();
}

}  // namespace perfbench
