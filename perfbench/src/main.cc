// cqc_perfbench: the benchmark of record for the cqc serving stack.
//
//   cqc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>]
//
// Hosts a CqcServer in-process, drives the named workload over real TCP
// with serve::Client, checks every answer against a DirectEval oracle and
// prints every metric by name and unit; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics. --trace 1 reports the per-layer metrics: it drives
// the wire untraced and then traced (spans around Client::Call), and
// replays the same seeded requests in-process through the public entry
// points of each layer (ParseScriptLine, RepCache, AnswerRep, NextBatch,
// EncodeValuesBody, DecodeResponsePayload), recording spans around each
// call. README.md lists the workloads, metrics and what each should move.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "oracle.h"
#include "plan/planner.h"
#include "plan/rep_cache.h"
#include "plan/script.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "selftest.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"
#include "util/op_counter.h"
#include "util/rng.h"
#include "workload/generators.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using cqc::Database;
using cqc::Result;
using cqc::Status;
using cqc::StatusCode;
using cqc::serve::Client;
using cqc::serve::CqcServer;
using cqc::serve::ServerOptions;
using cqc::serve::ServerStats;
using cqc::serve::WireRequest;
using cqc::serve::WireResponse;

constexpr const char* kHost = "127.0.0.1";
constexpr uint32_t kSetupDeadlineMs = 120'000;
constexpr uint32_t kRequestDeadlineMs = 30'000;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kMinSamples = 1000;
/// The window is cut into this many equal segments, each served by its own
/// freshly set-up server; the end-to-end figures are medians over segments.
/// A server's speed varies between set-ups of the same data (README.md), so
/// one server per run would measure a single draw of it.
constexpr int kSegments = 4;
/// Node ids of the path workloads are 1..kPathNodes; path2_rw's toggled
/// edges point above it.
constexpr Value kPathNodes = 400;
constexpr Value kPoolBase = 100'000;
constexpr size_t kPoolPerConnection = 8;

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::string view;
  std::vector<std::string> tenants;
  int connections = 4;       // closed-loop connections or open-loop senders
  bool open_loop = false;
  double offered_qps = 0;    // open loop only
  double zipf_theta = 0;     // 0 = uniform keys
  double write_frac = 0;     // path2_rw only
  int setup_reps = 1;        // setups per run; setup_s is their median
  size_t replay_requests = 0;
  ServerOptions server;
};

/// Every ServerOptions field is set here, per workload: nothing comes from
/// the environment.
ServerOptions BaseServerOptions() {
  ServerOptions o;
  o.host = kHost;
  o.port = 0;
  o.worker_threads = 4;
  o.max_sessions = 64;
  o.max_pipeline_depth = 64;
  o.per_tenant_inflight = 128;
  o.partial_frame_timeout = std::chrono::milliseconds(30'000);
  o.max_deadline_ms = kSetupDeadlineMs;
  o.coalesce_reads = true;
  o.space_budget_exponent = -1;
  o.cache = cqc::RepCacheOptions{};
  o.cache.capacity = 16;
  o.cache.max_resident_bytes = 0;
  o.cache.planner.churn_per_request = 0;
  o.max_payload_bytes = cqc::serve::kMaxPayloadBytes;
  return o;
}

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  w.server = BaseServerOptions();
  if (name == "tri_budget") {
    w.view = "Q^bff(x,y,z) = T(x,y), T(y,z), T(z,x)";
    w.tenants = {"t0", "t1"};
    w.server.space_budget_exponent = 1.2;
    w.setup_reps = 4;
    w.replay_requests = 160;
  } else if (name == "path3_skew") {
    w.view = "Q^bfff(x,y,z,w) = R1(x,y), R2(y,z), R3(z,w)";
    w.tenants = {"t0"};
    w.open_loop = true;
    w.offered_qps = 300;
    w.zipf_theta = 0.8;
    w.setup_reps = 60;
    w.replay_requests = 800;
  } else if (name == "path2_rw") {
    w.view = "Q^bff(x,y,z) = R1(x,y), R2(y,z)";
    w.tenants = {"t0"};
    w.write_frac = 0.1;
    w.server.cache.planner.churn_per_request = 0.1;
    w.setup_reps = 60;
    w.replay_requests = 4000;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Data {
  Database db;
  std::vector<Value> keys;  // every key a read may bind
  std::vector<std::pair<Value, Value>> pool;  // path2_rw toggled R2 edges
};

void MakeData(const Workload& w, uint64_t seed, Data* d) {
  if (w.name == "tri_budget") {
    constexpr uint64_t m = 180;
    cqc::MakeTripartiteTriangleGraph(d->db, "T", m);
    for (Value v = 1; v <= 3 * m; ++v) d->keys.push_back(v);
  } else {
    const bool rw = w.name == "path2_rw";
    cqc::MakePathRelations(d->db, "R", rw ? 2 : 3, kPathNodes,
                           rw ? 2'000 : 14'000, seed);
    for (Value v = 1; v <= kPathNodes; ++v) d->keys.push_back(v);
    if (rw) {
      // Connection c toggles pool edges [c*P, (c+1)*P): sources drawn from
      // the node domain, targets unique and outside it.
      cqc::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
      for (size_t i = 0; i < (size_t)w.connections * kPoolPerConnection; ++i)
        d->pool.push_back({1 + rng.Uniform(kPathNodes), kPoolBase + i});
    }
  }
}

// --- request streams ---------------------------------------------------------

struct Request {
  bool write = false;
  bool insert = false;   // write: insert (else delete) the pool edge
  Value key = 0;         // read: the bound value
  size_t edge = 0;       // write: index into Data::pool
  std::string Body(const Data& d) const {
    if (!write) return "? " + std::to_string(key);
    const auto& [y, z] = d.pool[edge];
    return std::string(insert ? "+" : "-") + " R2 " + std::to_string(y) +
           " " + std::to_string(z);
  }
};

/// One connection's seeded request sequence (closed loop). Writes toggle
/// the connection's own pool edges round-robin, so the stream knows each
/// edge's state and the database size stays stationary.
class ConnStream {
 public:
  ConnStream(const Workload& w, const Data& d, uint64_t seed, int conn)
      : w_(&w), d_(&d), conn_(conn),
        rng_(seed * 0x100000001b3ULL + (uint64_t)conn * 7919 + 1),
        present_(kPoolPerConnection, false) {}

  Request Next() {
    Request r;
    if (w_->write_frac > 0 && rng_.Bernoulli(w_->write_frac)) {
      const size_t i = next_edge_++ % kPoolPerConnection;
      r.write = true;
      r.edge = (size_t)conn_ * kPoolPerConnection + i;
      r.insert = !present_[i];
      present_[i] = r.insert;
      return r;
    }
    r.key = d_->keys[rng_.Uniform(d_->keys.size())];
    return r;
  }

  /// Pool edges this connection has left inserted.
  void AppendPresent(std::vector<std::pair<Value, Value>>* out) const {
    for (size_t i = 0; i < kPoolPerConnection; ++i)
      if (present_[i])
        out->push_back(d_->pool[(size_t)conn_ * kPoolPerConnection + i]);
  }

 private:
  const Workload* w_;
  const Data* d_;
  int conn_;
  cqc::Rng rng_;
  std::vector<bool> present_;
  size_t next_edge_ = 0;
};

/// Open-loop schedule keys: slot i reads slot_keys[i % size]. Zipf ranks
/// map to node ids directly; the graph is random, so hot keys are too.
std::vector<Value> OpenLoopKeys(const Workload& w, const Data& d,
                                uint64_t seed, size_t n) {
  cqc::Rng rng(seed ^ 0x5851f42d4c957f2dULL);
  cqc::ZipfSampler zipf(d.keys.size(), w.zipf_theta);
  std::vector<Value> out(n);
  for (Value& k : out) k = d.keys[zipf.Sample(rng)];
  return out;
}

// --- checking and failure accounting ----------------------------------------

struct Tally {
  uint64_t attempted = 0, ok = 0, transport = 0, refused = 0, timed_out = 0,
           failed = 0, wrong = 0;
  uint64_t failures() const {
    return transport + refused + timed_out + failed + wrong;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    transport += o.transport;
    refused += o.refused;
    timed_out += o.timed_out;
    failed += o.failed;
    wrong += o.wrong;
  }
};

/// Checks the answer to a read of `key`.
struct Checker {
  const KeyOracle* exact = nullptr;     // tri_budget, path3_skew
  const ToggleOracle* toggle = nullptr; // path2_rw during the window
  int arity = 0;
  bool Check(Value key, const WireResponse& r) const {
    if (r.arity != arity) return false;
    return toggle ? toggle->Check(key, r.values) : exact->Check(key, r.values);
  }
};

enum class Outcome { kOk, kTransport, kRefused, kTimedOut, kFailed, kWrong };

/// Sends one request and classifies the result; a transport failure drops
/// the connection, and the next call reconnects.
/// `*decoded_ns` (when set) receives the time the response was decoded,
/// before the answer check runs.
Outcome CallAndCheck(Client& cl, int port, const WireRequest& req,
              const Request& r, const Checker& chk, uint32_t recv_ms,
              int64_t* decoded_ns = nullptr) {
  if (!cl.connected() &&
      !cl.Connect(kHost, port, std::chrono::milliseconds(recv_ms)).ok())
    return Outcome::kTransport;
  WireResponse resp;
  const bool called = cl.Call(req, &resp).ok();
  if (decoded_ns != nullptr) *decoded_ns = NowNs();
  if (!called) {
    cl.Close();
    return Outcome::kTransport;
  }
  switch (resp.code) {
    case StatusCode::kOk:
      break;
    case StatusCode::kUnavailable:
      return Outcome::kRefused;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return Outcome::kTimedOut;
    default:
      return Outcome::kFailed;
  }
  if (r.write) return resp.num_rows() == 0 ? Outcome::kOk : Outcome::kWrong;
  return chk.Check(r.key, resp) ? Outcome::kOk : Outcome::kWrong;
}

void Count(Tally* t, Outcome o) {
  ++t->attempted;
  switch (o) {
    case Outcome::kOk: ++t->ok; break;
    case Outcome::kTransport: ++t->transport; break;
    case Outcome::kRefused: ++t->refused; break;
    case Outcome::kTimedOut: ++t->timed_out; break;
    case Outcome::kFailed: ++t->failed; break;
    case Outcome::kWrong: ++t->wrong; break;
  }
}

// --- server lifecycle --------------------------------------------------------

/// Starts a server and sends every tenant its first read concurrently;
/// returns the seconds from Start() until all of them were answered.
Result<double> StartAndWarm(CqcServer& server, const Workload& w,
                            const Data& d, const Checker& chk, Tally* tally) {
  const auto t0 = Clock::now();
  if (Status s = server.Start(); !s.ok()) return s;
  std::vector<Outcome> outcomes(w.tenants.size(), Outcome::kTransport);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < w.tenants.size(); ++t)
    threads.emplace_back([&, t] {
      Client cl;
      Request r;
      r.key = d.keys[0];
      WireRequest req;
      req.tenant = w.tenants[t];
      req.view = w.view;
      req.body = r.Body(d);
      req.deadline_ms = kSetupDeadlineMs;
      outcomes[t] =
          CallAndCheck(cl, server.port(), req, r, chk, kSetupDeadlineMs);
    });
  for (auto& th : threads) th.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  for (Outcome o : outcomes) {
    Count(tally, o);
    if (o != Outcome::kOk)
      return Status::Error("setup request failed (outcome " +
                           std::to_string((int)o) + ")");
  }
  return secs;
}

/// Stops the server and checks that every session and fd was released.
Status StopClean(CqcServer& server) {
  server.Stop();
  const ServerStats st = server.stats();
  if (st.active_sessions != 0 || st.open_fds != 0)
    return Status::Error("sessions/fds leaked after Stop(): " +
                         std::to_string(st.active_sessions) + " sessions, " +
                         std::to_string(st.open_fds) + " fds");
  return Status::Ok();
}

// --- wire load ---------------------------------------------------------------

struct WireResult {
  std::vector<double> read_us, write_us, late_us;
  std::vector<double> check_us;  // client-side answer checks of reads
  Tally tally;
  double elapsed_s = 0;
  Tracer tracer;  // "serve.call" / "serve.call_write" roots when traced
};

struct WireState {
  std::vector<ConnStream> streams;  // closed loop, persists across phases
  std::vector<Value> slot_keys;     // open loop
  size_t next_slot = 0;
};

/// Drives the workload for `seconds`. Samples are recorded only when
/// `record` (warm-up phases pass false but still count attempts). The
/// warm-up always runs closed loop, so every connection has a response in
/// flight at once and the process reaches its full-concurrency footprint
/// before the window.
WireResult RunWire(const Workload& w, const Data& d, int port,
                   const Checker& chk, WireState* st, double seconds,
                   bool record, bool traced) {
  const bool open_loop = w.open_loop && record;
  WireResult res;
  std::vector<WireResult> per(w.connections);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> ticket{0};
  std::vector<std::thread> threads;
  Clock::time_point start{};
  const size_t slot_base = st->next_slot;
  const uint64_t slots =
      open_loop ? (uint64_t)std::llround(w.offered_qps * seconds) : 0;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      WireResult& out = per[c];
      Client cl;
      (void)cl.Connect(kHost, port,
                       std::chrono::milliseconds(kRequestDeadlineMs));
      WireRequest req;
      req.tenant = w.tenants[(size_t)c % w.tenants.size()];
      req.view = w.view;
      req.deadline_ms = kRequestDeadlineMs;
      uint64_t id = 0;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto prev_done = start;
      for (;;) {
        Request r;
        Clock::time_point due;
        if (open_loop) {
          const uint64_t slot = ticket.fetch_add(1);
          if (slot >= slots) break;
          due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                (double)slot / w.offered_qps));
          std::this_thread::sleep_until(due);
          r.key = st->slot_keys[(slot_base + slot) % st->slot_keys.size()];
        } else {
          if (Clock::now() - start >= std::chrono::duration<double>(seconds))
            break;
          due = prev_done;
          r = st->streams[(size_t)c].Next();
        }
        req.body = r.Body(d);
        req.request_id = ++id;
        const int64_t sent = NowNs();
        const int span = traced ? out.tracer.Begin(r.write ? "serve.call_write"
                                                           : "serve.call",
                                                   id)
                                : -1;
        int64_t decoded = 0;
        const Outcome o =
            CallAndCheck(cl, port, req, r, chk, kRequestDeadlineMs, &decoded);
        const int64_t checked = NowNs();
        if (traced) out.tracer.EndAt(span, decoded);
        Count(&out.tally, o);
        const int64_t due_ns = ToNs(due);
        if (record && o == Outcome::kOk) {
          // Open loop: latency from the due time; closed loop: from send.
          const int64_t from = open_loop ? due_ns : sent;
          const double us = (double)(decoded - from) / 1e3;
          (r.write ? out.write_us : out.read_us).push_back(us);
          if (!r.write)
            out.check_us.push_back((double)(checked - decoded) / 1e3);
          // How late the generator sent: behind schedule (open loop), or
          // after the previous answer landed (closed loop).
          if (open_loop || prev_done != start)
            out.late_us.push_back(std::max(0.0, (double)(sent - due_ns) / 1e3));
        }
        prev_done = Clock::now();
      }
    });
  }
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  res.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  st->next_slot += slots;
  for (auto& p : per) {
    res.read_us.insert(res.read_us.end(), p.read_us.begin(), p.read_us.end());
    res.write_us.insert(res.write_us.end(), p.write_us.begin(),
                        p.write_us.end());
    res.late_us.insert(res.late_us.end(), p.late_us.begin(), p.late_us.end());
    res.check_us.insert(res.check_us.end(), p.check_us.begin(),
                        p.check_us.end());
    res.tally.Merge(p.tally);
    res.tracer.Merge(p.tracer);
  }
  return res;
}

/// path2_rw: after the window, every key is compared exactly against an
/// oracle over the mirrored final database (base + edges left inserted).
Status QuiescentPass(const Workload& w, const Data& d, const WireState& st,
                     int port, Tally* tally) {
  Database mirror;
  for (const char* name : {"R1", "R2"}) {
    const cqc::Relation* src = d.db.Find(name);
    cqc::Relation* dst = mirror.AddRelation(name, 2);
    for (size_t i = 0; i < src->size(); ++i)
      dst->Insert({src->At(i, 0), src->At(i, 1)});
  }
  std::vector<std::pair<Value, Value>> present;
  for (const ConnStream& s : st.streams) s.AppendPresent(&present);
  for (const auto& [y, z] : present) mirror.FindMutable("R2")->Insert({y, z});
  mirror.SealAll();
  auto oracle = KeyOracle::Build(w.view, mirror, d.keys, 2);
  if (!oracle.ok()) return oracle.status();
  Checker chk;
  chk.exact = &oracle.value();
  chk.arity = oracle.value().arity();
  Client cl;
  WireRequest req;
  req.tenant = w.tenants[0];
  req.view = w.view;
  req.deadline_ms = kRequestDeadlineMs;
  uint64_t wrong_before = tally->wrong;
  for (Value k : d.keys) {
    Request r;
    r.key = k;
    req.body = r.Body(d);
    Count(tally, CallAndCheck(cl, port, req, r, chk, kRequestDeadlineMs));
  }
  if (tally->wrong != wrong_before)
    return Status::Error("quiescent pass: answers differ from the oracle "
                         "over the final database");
  return Status::Ok();
}

/// One server's share of the window.
struct Segment {
  WireResult untraced;
  std::optional<WireResult> traced;  // --trace 1: the second half
  ServerStats before, after, end;    // around the untraced and traced halves
  cqc::RepCacheStats cache;          // summed over tenants, at the end
};

/// Request streams of segment `seg`; the traced run's replay uses seg 0's.
uint64_t SegmentSeed(uint64_t seed, int seg) {
  return seed * kSegments + (uint64_t)seg;
}

/// Drives `server` through a closed-loop warm-up and `seconds` of measured
/// load (with `traced`, an untraced half and a traced half). path2_rw then
/// runs the quiescent pass; its failure is returned after `out` is filled.
Status RunSegment(const Workload& w, const Data& d, const Checker& chk,
                  uint64_t stream_seed, double seconds, bool traced,
                  CqcServer& server, Segment* out, Tally* tally) {
  const int port = server.port();
  WireState st;
  for (int c = 0; c < w.connections; ++c)
    st.streams.emplace_back(w, d, stream_seed, c);
  if (w.open_loop)
    st.slot_keys = OpenLoopKeys(
        w, d, stream_seed, (size_t)std::llround(w.offered_qps * seconds) + 1);
  tally->Merge(
      RunWire(w, d, port, chk, &st, kWarmupSeconds, false, false).tally);
  out->before = server.stats();
  out->untraced = RunWire(w, d, port, chk, &st,
                          traced ? seconds / 2 : seconds, true, false);
  tally->Merge(out->untraced.tally);
  out->after = server.stats();
  if (traced) {
    out->traced = RunWire(w, d, port, chk, &st, seconds / 2, true, true);
    tally->Merge(out->traced->tally);
  }
  out->end = server.stats();
  for (const std::string& t : w.tenants) {
    const cqc::RepCacheStats cs = server.tenant_cache_stats(t);
    out->cache.hits += cs.hits;
    out->cache.misses += cs.misses;
    out->cache.builds += cs.builds;
    out->cache.rebuilds_completed += cs.rebuilds_completed;
    out->cache.resident_bytes += cs.resident_bytes;
  }
  return d.pool.empty() ? Status::Ok() : QuiescentPass(w, d, st, port, tally);
}

// --- in-process replay (traced run) -----------------------------------------

const char* ModuleOf(cqc::RepKind k) {
  switch (k) {
    case cqc::RepKind::kCompressed:
    case cqc::RepKind::kUpdatable:
      return "core";
    case cqc::RepKind::kDecomposed:
      return "decomposition";
    default:
      return "baseline";
  }
}

struct ModuleSpans {
  const char* answer;
  const char* drain;
};
ModuleSpans SpansOf(const std::string& module) {
  if (module == "core") return {"core.answer", "core.drain"};
  if (module == "decomposition")
    return {"decomposition.answer", "decomposition.drain"};
  return {"baseline.answer", "baseline.drain"};
}

struct ReplayResult {
  Tracer tracer;
  Tally tally;
  size_t reads = 0, rows = 0, response_bytes = 0;
  uint64_t ops = 0, hash_probes = 0, range_seeks = 0;
  uint64_t max_delay_ops = 0;
  double build_s = 0, plan_ms = 0;
  double space_mb = 0;
  int folds = 0;
  std::string module, kind, describe;
  double tau = 0;
};

Status Replay(const Workload& w, const Data& d, const Checker& chk,
              uint64_t seed, ReplayResult* out) {
  const double budget = w.server.space_budget_exponent;
  // One RepCache per tenant, configured like the server's; the first Get
  // of each is the build, over `d` as generated (no index built yet).
  std::vector<std::unique_ptr<cqc::RepCache>> caches;
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    caches.push_back(std::make_unique<cqc::RepCache>(&d.db, w.server.cache));
    const int64_t t0 = NowNs();
    auto e = caches.back()->Get(w.view, budget);
    if (!e.ok()) return e.status();
    out->build_s += (double)(NowNs() - t0) / 1e9 / (double)w.tenants.size();
  }

  // plan.plan_ms: the planner alone, on the normalized view (median of 5).
  {
    auto view = cqc::ParseAdornedView(w.view);
    if (!view.ok()) return view.status();
    auto norm = cqc::NormalizeView(view.value(), d.db);
    if (!norm.ok()) return norm.status();
    cqc::Planner planner(&d.db, &norm.value().aux_db);
    cqc::PlannerOptions popts = w.server.cache.planner;
    popts.space_budget_exponent = budget;
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const int64_t t0 = NowNs();
      auto plan = planner.PlanView(norm.value().view, popts);
      ms.push_back((double)(NowNs() - t0) / 1e6);
      if (!plan.ok()) return plan.status();
    }
    out->plan_ms = Percentile(ms, 50);
  }

  std::vector<ConnStream> streams;
  for (int c = 0; c < w.connections; ++c) streams.emplace_back(w, d, seed, c);
  std::vector<Value> slot_keys;
  if (w.open_loop)
    slot_keys = OpenLoopKeys(w, d, seed, w.replay_requests);

  Tracer& tr = out->tracer;
  std::vector<Value> delay_keys;
  for (size_t i = 0; i < w.replay_requests; ++i) {
    const int c = (int)(i % (size_t)w.connections);
    Request r;
    if (w.open_loop)
      r.key = slot_keys[i];
    else
      r = streams[(size_t)c].Next();
    cqc::RepCache& cache = *caches[(size_t)c % caches.size()];
    const std::string body = r.Body(d);
    const uint64_t id = i + 1;
    const auto ctx = cqc::RequestContext::WithTimeout(
        std::chrono::milliseconds(kRequestDeadlineMs));
    const int root = tr.Begin("request", id);

    int s = tr.Begin("plan.parse", id, root);
    auto op = cqc::ParseScriptLine(body, /*mutate_mode=*/true);
    tr.End(s);
    if (!op.ok()) return op.status();
    s = tr.Begin("plan.cache_get", id, root);
    auto entry = cache.Get(w.view, budget, &ctx);
    tr.End(s);
    if (!entry.ok()) return entry.status();
    const cqc::CachedRep& e = *entry.value();

    if (r.write) {
      if (Status v = cqc::ValidateMutation(op.value(), d.db); !v.ok())
        return v;
      const cqc::UpdateBatch delta = {
          r.insert ? cqc::UpdateOp::Insert(op.value().relation,
                                           op.value().values)
                   : cqc::UpdateOp::Delete(op.value().relation,
                                           op.value().values)};
      s = tr.Begin("plan.apply_delta", id, root);
      Status applied = cache.ApplyDelta(e.key(), delta);
      tr.End(s);
      tr.End(root);
      Count(&out->tally, applied.ok() ? Outcome::kOk : Outcome::kFailed);
      continue;
    }

    const ModuleSpans names = SpansOf(ModuleOf(e.rep().kind()));
    const int arity = e.view().num_free();
    const uint64_t ops0 = cqc::ops::Now();
    const uint64_t hp0 = cqc::ops::hash_point_probes;
    const uint64_t rs0 = cqc::ops::sorted_range_seeks;
    s = tr.Begin(names.answer, id, root);
    auto stream = e.rep().Answer(op.value().values, &ctx);
    tr.End(s);
    if (!stream.ok()) return stream.status();
    std::vector<Value> values;
    s = tr.Begin(names.drain, id, root);
    {
      cqc::TupleEnumerator& en = *stream.value();
      cqc::TupleBuffer batch(arity);
      constexpr size_t kBatch = 512;  // the server's drain slice
      for (;;) {
        batch.Clear();
        const size_t n = en.NextBatch(&batch, kBatch);
        values.insert(values.end(), batch.data(),
                      batch.data() + n * (size_t)arity);
        if (n < kBatch) break;
      }
    }
    tr.End(s);
    out->ops += cqc::ops::Now() - ops0;
    out->hash_probes += cqc::ops::hash_point_probes - hp0;
    out->range_seeks += cqc::ops::sorted_range_seeks - rs0;
    const size_t rows = values.size() / (size_t)arity;

    s = tr.Begin("serve.values_encode", id, root);
    const std::string values_body = cqc::serve::EncodeValuesBody(values);
    tr.End(s);
    WireResponse head;
    head.arity = (uint8_t)arity;
    const std::string frame =
        cqc::serve::EncodeResponseHead(head, (uint32_t)rows,
                                       values_body.size()) +
        values_body;
    WireResponse decoded;
    s = tr.Begin("serve.response_decode", id, root);
    Status dec = cqc::serve::DecodeResponsePayload(
        std::string_view(frame).substr(4), 4, &decoded);
    tr.End(s);
    tr.End(root);

    ++out->reads;
    out->rows += rows;
    out->response_bytes += frame.size();
    Count(&out->tally, dec.ok() && chk.Check(r.key, decoded)
                           ? Outcome::kOk
                           : Outcome::kWrong);
    if (delay_keys.size() < 16) delay_keys.push_back(r.key);
  }

  for (auto& c : caches) c->WaitForRebuilds();
  auto entry = caches[0]->Get(w.view, budget);
  if (!entry.ok()) return entry.status();
  const cqc::AnswerRep& rep = entry.value()->rep();
  out->kind = cqc::RepKindName(rep.kind());
  out->module = ModuleOf(rep.kind());
  out->tau = entry.value()->plan().tau();
  out->describe = rep.Describe();
  out->space_mb = (double)rep.SpaceBytes() / 1e6;
  if (auto* u = dynamic_cast<const cqc::UpdatableAnswerRep*>(&rep))
    out->folds = u->underlying().num_rebuilds();

  // The paper's delay: the worst operation-count gap between consecutive
  // tuples (and before the first / after the last), one tuple per pull.
  const int arity = entry.value()->view().num_free();
  for (Value k : delay_keys) {
    uint64_t prev = cqc::ops::Now();
    auto stream = rep.Answer({k});
    if (!stream.ok()) return stream.status();
    cqc::TupleBuffer one(arity);
    for (;;) {
      one.Clear();
      const size_t n = stream.value()->NextBatch(&one, 1);
      const uint64_t now = cqc::ops::Now();
      out->max_delay_ops = std::max(out->max_delay_ops, now - prev);
      prev = now;
      if (n == 0) break;
    }
  }
  return Status::Ok();
}

// --- output ------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return (int)std::thread::hardware_concurrency();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, const Tally& t,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string js = "{\"correct\": " + std::string(correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(t.attempted) +
                   ", \"failed\": " + std::to_string(t.failures()) +
                   ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) js += ", ";
    js += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
          ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

void PrintTally(const char* what, const Tally& t) {
  std::printf("%s: attempted %llu, ok %llu, transport %llu, refused %llu, "
              "timed_out %llu, failed %llu, wrong %llu, error_frac %.6g\n",
              what, (unsigned long long)t.attempted,
              (unsigned long long)t.ok, (unsigned long long)t.transport,
              (unsigned long long)t.refused,
              (unsigned long long)t.timed_out, (unsigned long long)t.failed,
              (unsigned long long)t.wrong,
              t.attempted ? (double)t.failures() / (double)t.attempted : 0.0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

int Fail(const std::string& msg) {
  std::fprintf(stderr, "cqc_perfbench: %s\n", msg.c_str());
  return 1;
}

int Run(const Args& a) {
  auto wopt = MakeWorkload(a.workload);
  if (!wopt) return Fail("unknown workload '" + a.workload + "'");
  const Workload& w = *wopt;
  const int nproc = Nproc();
  if (w.connections > nproc)
    return Fail("workload needs " + std::to_string(w.connections) +
                " generator threads but nproc is " + std::to_string(nproc));
  std::printf("workload %s seed %llu seconds %g trace %d nproc %d commit %s "
              "flags \"%s\"\n",
              w.name.c_str(), (unsigned long long)a.seed, a.seconds,
              (int)a.trace, nproc, a.commit.c_str(), PERFBENCH_CXX_FLAGS);
  if (Status s = RunSelfTest(); !s.ok())
    return Fail("self-test failed: " + s.message());

  // The oracle evaluates over its own copy of the data. Every set-up, and
  // the replay, gets a freshly generated copy too: DirectEval and the
  // structure builds sort and cache the base relations' indexes, and a
  // cold server pays for that.
  Data d;
  MakeData(w, a.seed, &d);
  auto oracle = KeyOracle::Build(w.view, d.db, d.keys, std::min(4, nproc));
  if (!oracle.ok()) return Fail("oracle: " + oracle.status().message());
  std::optional<ToggleOracle> toggle;
  if (!d.pool.empty()) toggle.emplace(oracle.value(), d.db, kPathNodes, d.pool);
  Checker chk;
  chk.exact = &oracle.value();
  chk.toggle = toggle ? &*toggle : nullptr;
  chk.arity = oracle.value().arity();

  // Every set-up is a fresh server over a fresh copy of the data; the first
  // `segments` of them each serve one segment of the window. With --trace 1
  // there is one set-up, and its window has an untraced and a traced half.
  // peak_rss_mb is VmHWM once the first server has stopped: the process's
  // peak over one server's life, as a fresh cqc_server process has it.
  // Later servers start on the heap the earlier ones left fragmented.
  Tally tally;
  bool correct = true;
  std::vector<double> setups;
  std::vector<Segment> segs;
  double peak_rss_mb = 0;
  const int segments = a.trace ? 1 : kSegments;
  const int reps = a.trace ? 1 : std::max(w.setup_reps, kSegments);
  const double seg_seconds = a.seconds / segments;
  for (int i = 0; i < reps; ++i) {
    Data served;
    MakeData(w, a.seed, &served);
    CqcServer server(&served.db, w.server);
    auto secs = StartAndWarm(server, w, d, chk, &tally);
    if (!secs.ok()) return Fail("setup: " + secs.status().message());
    setups.push_back(secs.value());
    if (i < segments) {
      segs.emplace_back();
      if (Status s = RunSegment(w, d, chk, SegmentSeed(a.seed, i),
                                seg_seconds, a.trace, server, &segs.back(),
                                &tally);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.message().c_str());
        correct = false;
      }
    }
    if (Status s = StopClean(server); !s.ok()) return Fail(s.message());
    if (i == 0) peak_rss_mb = PeakRssMb();
  }

  std::printf("setup_s over %zu setups:", setups.size());
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  std::vector<double> rd, wr, p50s, kqps;
  for (size_t i = 0; i < segs.size(); ++i) {
    const WireResult& u = segs[i].untraced;
    rd.insert(rd.end(), u.read_us.begin(), u.read_us.end());
    wr.insert(wr.end(), u.write_us.begin(), u.write_us.end());
    p50s.push_back(Percentile(u.read_us, 50));
    kqps.push_back((double)u.read_us.size() / u.elapsed_s / 1e3);
    std::printf("segment %zu: %zu reads, p50 %.3f us, p90 %.3f us, "
                "p99 %.3f us, %.4f kqps over %.3f s; %zu writes, "
                "p50 %.3f us, p99 %.3f us\n",
                i, u.read_us.size(), p50s.back(), Percentile(u.read_us, 90),
                Percentile(u.read_us, 99), kqps.back(), u.elapsed_s,
                u.write_us.size(), Percentile(u.write_us, 50),
                Percentile(u.write_us, 99));
    if (!a.trace && u.read_us.size() < kMinSamples)
      std::fprintf(stderr, "warning: segment %zu has %zu read samples < %zu: "
                   "its p99 is weak\n", i, u.read_us.size(), kMinSamples);
  }
  std::printf("reads: %zu samples, p90 %.3f us, p99 %.3f us; writes: %zu "
              "samples, p50 %.3f us, p99 %.3f us\n",
              rd.size(), Percentile(rd, 90), Percentile(rd, 99), wr.size(),
              Percentile(wr, 50), Percentile(wr, 99));

  std::vector<Metric> metrics;
  if (!a.trace) {
    // Open loop: each segment's rate is the achieved rate.
    const double read_kqps = Percentile(kqps, 50);
    if (w.open_loop && read_kqps < 0.95 * w.offered_qps / 1e3)
      std::fprintf(stderr, "warning: achieved %.4f kqps does not track the "
                   "offered %.4f kqps\n", read_kqps, w.offered_qps / 1e3);
    metrics = {
        {"setup_s", Percentile(setups, 50), "s"},
        {"read_p50_us", Percentile(p50s, 50), "us"},
        {"read_kqps", read_kqps, "k/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    ReplayResult rr;
    Data fresh;
    MakeData(w, a.seed, &fresh);
    if (Status s = Replay(w, fresh, chk, SegmentSeed(a.seed, 0), &rr);
        !s.ok())
      return Fail("replay: " + s.message());
    tally.Merge(rr.tally);
    const Segment& sg = segs[0];
    const WireResult& traced = *sg.traced;
    const auto layers = ReduceSpans(rr.tracer.spans());
    const auto wire_layers = ReduceSpans(traced.tracer.spans());
    // Stage figures are self times (equal to the span for leaf stages).
    auto mean_of = [&](const char* name) {
      auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.mean_self_us();
    };
    auto total_of = [&](const char* name) {
      auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.self_us;
    };
    const double reads = (double)std::max<size_t>(rr.reads, 1);
    const double rows = (double)std::max<size_t>(rr.rows, 1);
    const ModuleSpans ms = SpansOf(rr.module);
    const double answer_us = total_of(ms.answer) / reads;
    const double drain_us = total_of(ms.drain) / reads;
    double call_mean = 0, call_p99 = 0;
    if (auto it = wire_layers.find("serve.call"); it != wire_layers.end()) {
      call_mean = it->second.mean_incl_us();
      call_p99 = Percentile(it->second.durations_us, 99);
    }
    const double residual = ResidualUs(
        call_mean, {mean_of("plan.parse"), mean_of("plan.cache_get"),
                    answer_us, drain_us, mean_of("serve.values_encode"),
                    mean_of("serve.response_decode")});
    const ServerStats &before = sg.before, &after = sg.after, &end = sg.end;
    const cqc::RepCacheStats& cache_tot = sg.cache;
    const uint64_t d_reads = end.requests_ok - after.requests_ok;
    auto module_metrics = [&](const std::string& m) {
      const bool on = rr.module == m;
      std::vector<Metric> v = {
          {m + ".answer_us", on ? answer_us : 0, "us"},
          {m + ".drain_us", on ? drain_us : 0, "us"},
          {m + ".ns_per_row", on ? total_of(ms.drain) * 1e3 / rows : 0, "ns"},
          {m + ".ops_per_row", on ? (double)rr.ops / rows : 0, "ops"},
          {m + ".max_delay_ops", on ? (double)rr.max_delay_ops : 0, "ops"},
          {m + ".space_mb", on ? rr.space_mb : 0, "MB"},
      };
      return v;
    };
    std::printf("plan: kind %s module %s tau %.6g: %s\n", rr.kind.c_str(),
                rr.module.c_str(), rr.tau, rr.describe.c_str());
    std::printf("replay: %zu reads, %zu rows; traced wire: %zu reads\n",
                rr.reads, rr.rows, traced.read_us.size());
    if (rr.module == "baseline")
      for (const Metric& m : module_metrics("baseline"))
        std::printf("  %s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    metrics = {
        {"serve.call_us", call_mean, "us"},
        {"serve.call_p99_us", call_p99, "us"},
        {"serve.read_p90_us", Percentile(rd, 90), "us"},
        {"serve.read_p99_us", Percentile(rd, 99), "us"},
        {"serve.values_encode_us", mean_of("serve.values_encode"), "us"},
        {"serve.response_decode_us", mean_of("serve.response_decode"), "us"},
        {"serve.response_kb", (double)rr.response_bytes / reads / 1024.0, "KB"},
        {"serve.coalesced_frac",
         d_reads ? (double)(end.coalesced_reads - after.coalesced_reads) /
                       (double)d_reads
                 : 0,
         "ratio"},
        {"serve.residual_us", residual, "us"},
        {"serve.requests_failed",
         (double)(end.requests_failed - before.requests_failed), "count"},
        {"serve.admission_rejected",
         (double)(end.admission_rejected - before.admission_rejected),
         "count"},
        {"serve.write_p50_us", Percentile(wr, 50), "us"},
        {"serve.write_p99_us", Percentile(wr, 99), "us"},
        {"plan.parse_us", mean_of("plan.parse"), "us"},
        {"plan.cache_get_us", mean_of("plan.cache_get"), "us"},
        {"plan.plan_ms", rr.plan_ms, "ms"},
        {"plan.build_s", rr.build_s, "s"},
        {"plan.resident_mb", (double)cache_tot.resident_bytes / 1e6, "MB"},
        {"plan.cache_hits", (double)cache_tot.hits, "count"},
        {"plan.cache_misses", (double)cache_tot.misses, "count"},
        {"plan.builds", (double)cache_tot.builds, "count"},
        {"plan.apply_delta_us", mean_of("plan.apply_delta"), "us"},
        {"plan.fold_tasks", (double)cache_tot.rebuilds_completed, "count"},
    };
    for (const char* m : {"core", "decomposition"})
      for (Metric& x : module_metrics(m)) metrics.push_back(std::move(x));
    metrics.push_back({"core.folds", (double)rr.folds, "count"});
    metrics.push_back({"relational.hash_probes_per_row",
                       (double)rr.hash_probes / rows, "count"});
    metrics.push_back({"relational.range_seeks_per_row",
                       (double)rr.range_seeks / rows, "count"});
    std::vector<double> late = sg.untraced.late_us;
    late.insert(late.end(), traced.late_us.begin(), traced.late_us.end());
    metrics.push_back({"loadgen.late_p99_us", Percentile(late, 99), "us"});
    // The client threads check every answer on the vCPUs the server uses;
    // in a closed loop the check delays the next send, so read_kqps pays
    // for it (read latency does not: it stops when the response is decoded).
    double check_sum = 0;
    const std::vector<double>& checks = sg.untraced.check_us;
    for (double c : checks) check_sum += c;
    metrics.push_back({"loadgen.check_us",
                       checks.empty() ? 0 : check_sum / (double)checks.size(),
                       "us"});
    const double read_p50 = Percentile(rd, 50);
    const double traced_p50 = Percentile(traced.read_us, 50);
    metrics.push_back({"trace.overhead_frac",
                       read_p50 > 0 ? traced_p50 / read_p50 - 1 : 0, "ratio"});
  }

  PrintTally("requests", tally);
  if (tally.wrong > 0) correct = false;
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 3;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--commit") a->commit = v;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "cqc_perfbench: refusing a build without NDEBUG\n");
  return 2;
#endif
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    const cqc::Status s = perfbench::RunSelfTest();
    std::printf("self-test: %s\n", s.ok() ? "ok" : s.message().c_str());
    return s.ok() ? 0 : 1;
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cqc_perfbench --workload tri_budget|path3_skew|"
                 "path2_rw --seed N --seconds S --trace 0|1 [--commit ID]\n");
    return 2;
  }
  return perfbench::Run(args);
}
