#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "baseline/direct_eval.h"
#include "query/parser.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Pack(Value a, Value b) { return (a << 32) ^ b; }

}  // namespace

void Digest::Add(const Value* row, int arity) {
  uint64_t h = 0x6a09e667f3bcc909ULL;
  for (int i = 0; i < arity; ++i) h = Mix(h ^ row[i]);
  ++rows;
  sum += h;
}

Digest DigestRows(const std::vector<Value>& values, int arity) {
  Digest d;
  if (arity <= 0) return d;
  for (size_t i = 0; i + (size_t)arity <= values.size(); i += (size_t)arity)
    d.Add(values.data() + i, arity);
  return d;
}

cqc::Result<KeyOracle> KeyOracle::Build(const std::string& view_text,
                                        const cqc::Database& db,
                                        const std::vector<Value>& keys,
                                        int threads) {
  auto view = cqc::ParseAdornedView(view_text);
  if (!view.ok()) return view.status();
  auto eval = cqc::DirectEval::Build(view.value(), db);
  if (!eval.ok()) return eval.status();
  const cqc::DirectEval& de = *eval.value();
  KeyOracle out;
  out.arity_ = view.value().num_free();

  std::vector<Digest> digests(keys.size());
  auto eval_key = [&](size_t i) {
    auto stream = de.Answer({keys[i]});
    cqc::TupleBuffer buf(out.arity_);
    Digest d;
    for (;;) {
      buf.Clear();
      const size_t n = stream->NextBatch(&buf, 1024);
      for (size_t j = 0; j < n; ++j) d.Add(buf[j].data(), out.arity_);
      if (n < 1024) break;
    }
    digests[i] = d;
  };
  // The first key runs alone so any lazily built index exists before the
  // workers share the evaluator.
  if (!keys.empty()) eval_key(0);
  std::atomic<size_t> next{1};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t)
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < keys.size();) eval_key(i);
    });
  for (auto& th : pool) th.join();
  for (size_t i = 0; i < keys.size(); ++i) out.digests_[keys[i]] = digests[i];
  return out;
}

const Digest* KeyOracle::Find(Value key) const {
  auto it = digests_.find(key);
  return it == digests_.end() ? nullptr : &it->second;
}

bool KeyOracle::Check(Value key, const std::vector<Value>& values) const {
  const Digest* want = Find(key);
  if (want == nullptr || arity_ <= 0 || values.size() % (size_t)arity_ != 0)
    return false;
  return DigestRows(values, arity_) == *want;
}

ToggleOracle::ToggleOracle(KeyOracle base, const cqc::Database& db,
                           Value domain_max,
                           const std::vector<std::pair<Value, Value>>& pool)
    : base_(std::move(base)), domain_max_(domain_max) {
  const cqc::Relation* r1 = db.Find("R1");
  for (size_t i = 0; r1 != nullptr && i < r1->size(); ++i)
    r1_.insert(Pack(r1->At(i, 0), r1->At(i, 1)));
  for (const auto& [y, z] : pool) pool_.insert(Pack(y, z));
}

bool ToggleOracle::Check(Value x, const std::vector<Value>& values) const {
  // Rows are (y, z): the free variables of Q^bff(x,y,z).
  if (base_.arity() != 2 || values.size() % 2 != 0) return false;
  const Digest* want = base_.Find(x);
  if (want == nullptr) return false;
  Digest in_domain;
  std::unordered_set<uint64_t> extra;
  for (size_t i = 0; i < values.size(); i += 2) {
    const Value y = values[i], z = values[i + 1];
    if (z <= domain_max_) {
      in_domain.Add(&values[i], 2);
      continue;
    }
    const uint64_t edge = Pack(y, z);
    if (!pool_.count(edge) || !r1_.count(Pack(x, y)) ||
        !extra.insert(edge).second)
      return false;
  }
  return in_domain == *want;
}

}  // namespace perfbench
