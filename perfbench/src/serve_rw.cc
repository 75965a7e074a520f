// serve_rw: remote reads beside writes. A flat-vocabulary corpus is
// synthesized, saved with SaveSnapshot and reopened with OpenFromSnapshot
// in set-up, then served over loopback by net::MappingServer while one
// writer applies ReplaceAndResynthesize / AppendAndResynthesize batches at
// a fixed cadence. Reads and writes share the service, so work moved from
// reads into publish shows up in publish_p50_ms.
//
// Reads come from an open-loop generator: request k of a phase is due at
// start + k / rate whatever happened before, and is timed from its due
// time, so a stall also charges the requests queued behind it. Each
// generator connection is a blocking MappingClient taking every C-th
// request. The mix is a fixed cycle of types (kCycle). Phases:
//   - a warm-up at kReferenceRate for 5% of --seconds, discarded;
//   - the reference phase, kReferenceRate for 55% of --seconds: per-type
//     latency percentiles;
//   - the sweep, fixed-rate phases of 13% of --seconds each. A rate meets
//     the limit when, in one of two attempts, its p99 over all types stays
//     within kP99LimitMs without falling kMaxLagSeconds behind. The sweep
//     doubles from kReferenceRate (halves, if the reference phase and two
//     attempts miss) until one rate meets the limit and another misses
//     it, then bisects that bracket geometrically kBisections times:
//     serve_max_rps is the throughput achieved at the highest rate that
//     met the limit, to within ~4%.
// The writer issues a batch every kWritePeriodSeconds while phases run;
// publish latency runs from the writer call to the first response, on any
// connection, carrying the new snapshot version, and publish_p50_ms is
// the mean of the replace and the append medians.
//
// The service that serves is the one synthesized from a corpus file it
// owns: removals and replacements tombstone tables in the service's own
// corpus, which a snapshot-restored service does not have. The reopened
// snapshot is checked to serve the same mappings.
//
// Threads: server workers + generator connections + the writer together
// stay within hardware concurrency; the service synthesizes on one thread.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "apps/serving.h"
#include "corpora.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "stages.h"
#include "table/tsv.h"

namespace perfbench {
namespace {

constexpr size_t kTablesFull = 2000;
constexpr size_t kTablesTiny = 200;
/// The corpus comes from one fixed generator seed: generator seeds change
/// the mapping count, and with it the cost of every scan, which would
/// swamp a change under test. --seed orders the corpus's tables, picks the
/// request payloads and their order, and drives the writer.
constexpr uint64_t kCorpusSeed = 8000;
constexpr size_t kBatchValues = 32;
constexpr size_t kColumnValues = 12;
constexpr size_t kPoolItems = 512;
/// The request mix is bench_net's (80% LookupBatch, 10% SuggestCorrections,
/// 10% Health) with the Health share split evenly between AutoFill and
/// AutoJoin: 16 lookups, 2 corrections, 1 fill and 1 join in every 20
/// requests. It is sent as a fixed cycle (rather than a random draw per
/// request) so every cycle queues the same way and the latency tail
/// reflects service times instead of which coincidences a seed drew; the
/// positions put one correction and one of fill/join on each of two
/// connections taking alternate requests.
enum Type : uint8_t { kLookup = 0, kCorrect = 1, kFill = 2, kJoin = 3 };
constexpr size_t kCycleLen = 20;
constexpr Type kCycle[kCycleLen] = {
    kLookup, kLookup, kLookup, kLookup, kCorrect, kLookup, kLookup,
    kLookup, kLookup, kFill,   kLookup, kLookup,  kLookup, kCorrect,
    kLookup, kLookup, kLookup, kLookup, kJoin,    kLookup};
constexpr const char* kTypeNames[4] = {"lookup", "correct", "fill", "join"};
constexpr double kReferenceRate = 200.0;
/// The sweep's bracket is [kMinSweepRate, kMaxSweepRate]; kBisections
/// geometric halvings of a factor-2 bracket leave 2^(1/16), about 4%.
constexpr double kMinSweepRate = 10.0;
constexpr double kMaxSweepRate = 20000.0;
constexpr int kBisections = 4;
constexpr double kP99LimitMs = 100.0;
constexpr double kMaxLagSeconds = 1.0;
/// The write cadence has no published traffic behind it; it is chosen so
/// that at full scale the writes (~0.15 s a replace, ~0.03 s an append, at
/// one thread) keep the writer busy about a fifth of the time, reads always
/// run beside a recent publish, and a run at --seconds 12 holds ~50
/// publishes for publish_p50_ms.
constexpr double kWritePeriodSeconds = 0.5;


ms::SynthesisOptions ServeOptions() {
  ms::SynthesisOptions o;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.extraction.coherence_threshold = -1.0;
  // The writer is one thread; the thread budget counts it as one.
  o.num_threads = 1;
  return o;
}

/// Pre-built request payloads. Each item is drawn from one served mapping:
/// a lookup batch of its left values (with misses and typos mixed in), and
/// a key column with its right values for fill and join.
struct RequestPool {
  std::vector<uint64_t> batch_mapping;
  std::vector<std::vector<std::string>> batches;
  std::vector<std::vector<std::string>> columns;
  std::vector<std::vector<std::string>> rights;
};

RequestPool BuildRequests(const ms::ServingSnapshot& snap, ms::Rng& rng,
                          size_t items) {
  RequestPool pool;
  const auto& mappings = snap.result->mappings;
  const size_t n_mappings = snap.store->size();
  for (size_t i = 0; i < items; ++i) {
    const size_t mi = rng.Uniform(n_mappings);
    const auto& pairs = mappings[mi].merged.pairs();
    std::vector<std::string> batch;
    for (size_t k = 0; k < kBatchValues; ++k) {
      const double roll = rng.UniformDouble();
      if (pairs.empty() || roll < 0.15) {
        batch.push_back("miss value " + std::to_string(rng.Uniform(10000)));
        continue;
      }
      std::string v(snap.pool->Get(pairs[rng.Uniform(pairs.size())].left));
      if (roll < 0.3 && !v.empty()) v[rng.Uniform(v.size())] = 'z';
      batch.push_back(std::move(v));
    }
    std::vector<std::string> column;
    std::vector<std::string> right;
    for (size_t k = 0; k < pairs.size() && k < kColumnValues; ++k) {
      column.emplace_back(snap.pool->Get(pairs[k].left));
      right.emplace_back(snap.pool->Get(pairs[k].right));
    }
    if (column.size() > 2 && !column[1].empty()) column[1][0] = 'z';  // a typo
    pool.batch_mapping.push_back(mi);
    pool.batches.push_back(std::move(batch));
    pool.columns.push_back(std::move(column));
    pool.rights.push_back(std::move(right));
  }
  return pool;
}

struct Op {
  Type type;
  uint32_t item;
};

/// The op sequence of one phase: types follow kCycle, and each type walks
/// the payload pool in a seeded order, so every payload is sent equally
/// often instead of as often as a draw happened to pick it.
std::vector<Op> PhaseOps(uint64_t seed, size_t phase, size_t n) {
  ms::Rng rng(seed * 7919 + phase);
  std::vector<uint32_t> order(kPoolItems);
  for (uint32_t i = 0; i < kPoolItems; ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<Op> ops(n);
  size_t next[4] = {0, 1, 2, 3};  // offset per type: types see different items
  for (size_t k = 0; k < n; ++k) {
    const Type t = kCycle[k % kCycleLen];
    ops[k] = {t, order[next[t]++ % kPoolItems]};
  }
  return ops;
}

/// Waits until `due` (steady-clock seconds): sleeps to just short of it,
/// then spins, so wake-up jitter does not pass for server latency.
void WaitUntil(double due) {
  constexpr double kSpinSeconds = 300e-6;
  const double now = NowSeconds();
  if (due - now > kSpinSeconds) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(due - now - kSpinSeconds));
  }
  while (NowSeconds() < due) {
  }
}

/// Issues one request of `op` on `client`.
bool Issue(ms::net::MappingClient& client, const RequestPool& pool,
           const Op& op) {
  switch (op.type) {
    case kLookup:
      return client
          .LookupBatch(pool.batch_mapping[op.item], pool.batches[op.item])
          .ok();
    case kCorrect:
      return client.SuggestCorrections(pool.columns[op.item]).ok();
    case kFill:
      return client
          .AutoFill(pool.columns[op.item], {{0, pool.rights[op.item][0]}})
          .ok();
    case kJoin:
      return client.AutoJoin(pool.columns[op.item], pool.rights[op.item]).ok();
  }
  return false;
}

struct Sample {
  Type type;
  bool ok;
  double latency_us;  ///< completion minus due time
  double rtt_us;      ///< completion minus send time
  double lag_ms;      ///< send time minus due time
  double due_s;       ///< due time, steady clock
};

/// First time this connection saw each new snapshot version.
using VersionLog = std::vector<std::pair<uint64_t, double>>;

struct PhaseResult {
  double rate = 0.0;
  double wall_s = 0.0;
  std::vector<Sample> samples;
  size_t unsent = 0;  ///< abandoned after falling kMaxLagSeconds behind

  double P99AllMs() const {
    // An abandoned or failed request misses any limit.
    std::vector<double> v;
    for (const auto& s : samples) {
      if (!s.ok) return INFINITY;
      v.push_back(s.latency_us);
    }
    return unsent > 0 || v.empty() ? INFINITY : Quantile(std::move(v), 0.99) / 1e3;
  }
  double Achieved() const {
    return wall_s > 0 ? static_cast<double>(samples.size()) / wall_s : 0.0;
  }
};

PhaseResult RunPhase(std::vector<ms::net::MappingClient>& clients,
                     std::vector<VersionLog>& versions,
                     const RequestPool& pool, const std::vector<Op>& ops,
                     double rate) {
  const size_t conns = clients.size();
  std::vector<std::vector<Sample>> per_conn(conns);
  std::vector<size_t> unsent(conns, 0);
  const double start = NowSeconds() + 0.005;
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ms::net::MappingClient& client = clients[c];
      VersionLog& seen = versions[c];
      for (size_t k = c; k < ops.size(); k += conns) {
        const double due = start + static_cast<double>(k) / rate;
        WaitUntil(due);
        const double now = NowSeconds();
        if (now - due > kMaxLagSeconds) {
          unsent[c] = (ops.size() - k + conns - 1) / conns;
          return;
        }
        const bool ok = Issue(client, pool, ops[k]);
        const double done = NowSeconds();
        const uint64_t v = client.last_header().health.snapshot_version;
        if (seen.empty() || v > seen.back().first) seen.emplace_back(v, done);
        per_conn[c].push_back({ops[k].type, ok, (done - due) * 1e6,
                               (done - now) * 1e6, (now - due) * 1e3, due});
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult r;
  r.rate = rate;
  r.wall_s = NowSeconds() - start;
  for (size_t c = 0; c < conns; ++c) {
    r.samples.insert(r.samples.end(), per_conn[c].begin(), per_conn[c].end());
    r.unsent += unsent[c];
  }
  return r;
}

struct WriteRecord {
  double start = 0.0;
  double end = 0.0;
  uint64_t version = 0;
  bool ok = false;
  bool replace = false;  ///< ReplaceAndResynthesize, else AppendAndResynthesize
};

/// The writer: alternates replace and append batches every
/// kWritePeriodSeconds until stopped. A replace retires two batches' worth
/// of live tables for one batch of new ones, so with the appends the live
/// table count, and with it the cost of every scan, stays level. Inputs
/// come from its own seeded stream, so the same seed issues the same
/// writes.
class Writer {
 public:
  Writer(ms::MappingService& svc, const Vocab& vocab, uint64_t seed,
         size_t tables, size_t batch)
      : svc_(svc), vocab_(vocab), rng_(seed ^ 0x5eedf00dULL), batch_(batch),
        dead_(tables, 0) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  const std::vector<WriteRecord>& records() const { return records_; }

 private:
  void Loop() {
    const double start = NowSeconds();
    for (size_t k = 0;; ++k) {
      const double due = start + static_cast<double>(k + 1) * kWritePeriodSeconds;
      while (NowSeconds() < due) {
        if (stop_.load()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop_.load()) return;
      ms::TableCorpus delta;
      GrowFlat(&delta, batch_, vocab_, rng_);
      std::vector<uint32_t> removed;
      if (k % 2 == 0) removed = TakeLiveRun(&dead_, 2 * batch_, rng_);
      WriteRecord w;
      w.start = NowSeconds();
      const ms::Status st = k % 2 == 0
                                ? svc_.ReplaceAndResynthesize(removed, delta)
                                : svc_.AppendAndResynthesize(delta);
      w.end = NowSeconds();
      w.ok = st.ok();
      w.replace = k % 2 == 0;
      if (!st.ok()) std::cerr << "writer: " << st.ToString() << "\n";
      const auto snap = svc_.AcquireSnapshot();
      w.version = snap ? snap->version : 0;
      if (w.ok) dead_.resize(dead_.size() + batch_, 0);
      records_.push_back(w);
    }
  }

  ms::MappingService& svc_;
  const Vocab& vocab_;
  ms::Rng rng_;
  size_t batch_;
  std::vector<uint8_t> dead_;
  std::vector<WriteRecord> records_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Served {
  std::unique_ptr<Vocab> vocab;
  /// The corpus the service synthesized from its file, kept in memory for
  /// the traced run's stage-by-stage chains.
  ms::TableCorpus corpus;
  std::unique_ptr<ms::MappingService> svc;
  std::unique_ptr<ms::MappingService> reopened;
  double synth_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double snapshot_bytes = 0.0;
  bool ok = false;
};

std::unique_ptr<Served> SetUp(const Args& args, size_t n_tables,
                              Tracer& tracer, Report& report) {
  auto s = std::make_unique<Served>();
  ms::Rng gen_rng(kCorpusSeed);
  s->vocab = std::make_unique<Vocab>(std::max<size_t>(n_tables / 4, 500),
                                     std::max<size_t>(n_tables / 30, 100),
                                     gen_rng, false);
  ms::TableCorpus generated;
  GrowFlat(&generated, n_tables, *s->vocab, gen_rng);
  ms::TableCorpus& corpus = s->corpus;
  ms::Rng order_rng(args.seed);
  AddPermuted(generated, order_rng, &corpus);
  const std::string tsv = args.work_dir + "/serve_rw_corpus.tsv";
  const std::string snap = args.work_dir + "/serve_rw.mssnap";
  ms::Status st = ms::SaveCorpus(corpus, tsv);
  report.Attempt(st.ok(), "SaveCorpus: " + st.ToString());
  if (!st.ok()) return s;
  s->svc = std::make_unique<ms::MappingService>(ServeOptions());
  double t0 = NowSeconds();
  {
    Span span(tracer, "synthesize");
    st = s->svc->SynthesizeFromFile(tsv);
  }
  s->synth_s = NowSeconds() - t0;
  report.Attempt(st.ok(), "SynthesizeFromFile: " + st.ToString());
  if (!st.ok()) return s;
  t0 = NowSeconds();
  {
    Span span(tracer, "persist.save");
    st = s->svc->SaveSnapshot(snap);
  }
  s->save_s = NowSeconds() - t0;
  report.Attempt(st.ok(), "SaveSnapshot: " + st.ToString());
  if (!st.ok()) return s;
  if (FILE* f = std::fopen(snap.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    s->snapshot_bytes = static_cast<double>(std::ftell(f));
    std::fclose(f);
  }
  s->reopened = std::make_unique<ms::MappingService>(ServeOptions());
  t0 = NowSeconds();
  {
    Span span(tracer, "persist.open");
    st = s->reopened->OpenFromSnapshot(snap);
  }
  s->open_s = NowSeconds() - t0;
  report.Attempt(st.ok(), "OpenFromSnapshot: " + st.ToString());
  s->ok = st.ok();
  return s;
}

/// Sends a sample of requests on `client` (no writer running) and compares
/// each response body byte for byte with an in-process encode under the
/// response's own header.
size_t CountDivergence(ms::net::MappingClient& client,
                       const ms::MappingService& svc, const RequestPool& pool,
                       bool perturb) {
  namespace net = ms::net;
  size_t divergent = 0;
  for (uint32_t item = 0; item < 64; ++item) {
    for (int t = 0; t < 4; ++t) {
      const Op op{static_cast<Type>(t), static_cast<uint32_t>(item * 7 % kPoolItems)};
      const bool ok = Issue(client, pool, op);
      std::string remote = client.last_response_body();
      if (perturb && item == 0 && t == 0 && !remote.empty()) remote.back() ^= 1;
      const net::ResponseHeader& h = client.last_header();
      std::string local;
      switch (op.type) {
        case kLookup: {
          net::LookupBatchResponse r;
          r.values = svc.LookupBatch(pool.batch_mapping[op.item],
                                     pool.batches[op.item]);
          local = net::EncodeLookupBatchResponse(h, r);
          break;
        }
        case kCorrect:
          local = net::EncodeSuggestCorrectionsResponse(
              h, svc.SuggestCorrections(pool.columns[op.item]));
          break;
        case kFill:
          local = net::EncodeAutoFillResponse(
              h, svc.AutoFill(pool.columns[op.item],
                              {{0, pool.rights[op.item][0]}}));
          break;
        case kJoin:
          local = net::EncodeAutoJoinResponse(
              h, svc.AutoJoin(pool.columns[op.item], pool.rights[op.item]));
          break;
      }
      if (!ok || remote != local) ++divergent;
    }
  }
  return divergent;
}

/// In-process calls of the same mix, closed loop, for `seconds`. With
/// tracing on, every op runs twice, once under a span and once not, in
/// alternating order (so neither side always gets the warmer second call);
/// `pair_ratios` collects traced / untraced per op.
void RunInProcess(const ms::MappingService& svc, const RequestPool& pool,
                  uint64_t seed, double seconds, Tracer& tracer,
                  std::vector<double> (&latency_us)[4],
                  std::vector<double>* pair_ratios) {
  const std::vector<Op> ops = PhaseOps(seed, 999, 1 << 16);
  const double end = NowSeconds() + seconds;
  Tracer off(false);
  const auto call = [&](const Op& op, bool traced) {
    const double t0 = NowSeconds();
    {
      Span span(traced ? tracer : off, std::string("apps.") + kTypeNames[op.type]);
      switch (op.type) {
        case kLookup:
          svc.LookupBatch(pool.batch_mapping[op.item], pool.batches[op.item]);
          break;
        case kCorrect:
          svc.SuggestCorrections(pool.columns[op.item]);
          break;
        case kFill:
          svc.AutoFill(pool.columns[op.item], {{0, pool.rights[op.item][0]}});
          break;
        case kJoin:
          svc.AutoJoin(pool.columns[op.item], pool.rights[op.item]);
          break;
      }
    }
    const double us = (NowSeconds() - t0) * 1e6;
    latency_us[op.type].push_back(us);
    return us;
  };
  for (size_t k = 0; k < ops.size() && NowSeconds() < end; ++k) {
    const bool traced_first = k % 2 == 0;
    const double first = call(ops[k], traced_first);
    const double second = call(ops[k], !traced_first);
    pair_ratios->push_back(traced_first ? first / second : second / first);
  }
}

}  // namespace

void RunServeRw(const Args& args, Tracer& tracer, Report& report) {
  namespace net = ms::net;
  const size_t n_tables = args.tiny ? kTablesTiny : kTablesFull;
  const size_t batch = std::max<size_t>(n_tables / 100, 2);
  const size_t nproc = std::max(3u, std::thread::hardware_concurrency());
  const size_t workers = std::max<size_t>(1, (nproc - 1) / 3);
  const size_t conns = nproc - 1 - workers;

  // ------------------------------------------------------------- set-up
  // setup_s is the median of SetupReps set-ups: two before the window (the
  // second builds the service that serves) and the rest after it, once
  // that service is gone, so they are sampled across the run: on a shared
  // host, single-thread speed shifts by a fifth for tens of seconds at a
  // time. None runs beside the window, whose threads fill every core.
  const int setup_reps = SetupReps(args, 5);
  std::vector<double> setup_s, synth_s, save_s, open_s;
  std::unique_ptr<Served> served;
  const auto timed_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      served.reset();
      const double t0 = NowSeconds();
      served = SetUp(args, n_tables, tracer, report);
      setup_s.push_back(NowSeconds() - t0);
      report.Check(served->ok, "serve_rw: set-up completed");
      if (!served->ok) return false;
      synth_s.push_back(served->synth_s);
      save_s.push_back(served->save_s);
      open_s.push_back(served->open_s);
    }
    return true;
  };
  if (!timed_setups(std::min(setup_reps, 2))) return;
  ms::MappingService& svc = *served->svc;
  {
    const std::vector<std::string> want =
        Canonical(svc.last_result().mappings, *svc.shared_pool());
    const std::vector<std::string> got = Canonical(
        served->reopened->last_result().mappings, *served->reopened->shared_pool());
    report.Check(got == want,
                 "serve_rw: reopened snapshot serves the synthesized mappings");
  }
  const size_t initial_mappings = svc.num_mappings();
  if (tracer.enabled()) {
    // The service synthesizes in one call; the traced run also drives the
    // same corpus through the five stages, at the service's one thread and
    // at the default thread count, for the stage metrics and
    // synth.scaling.
    ms::SynthesisSession t1(ServeOptions());
    Family t1_family;
    report.Check(ColdChain(t1, served->corpus, "", tracer, report, &t1_family),
                 "serve_rw: one-thread cold chain completed");
    ms::SynthesisOptions options = ServeOptions();
    options.num_threads = 0;
    ms::SynthesisSession tn(options);
    Family tn_family;
    report.Check(
        ColdChain(tn, served->corpus, ".tN", tracer, report, &tn_family),
        "serve_rw: default-thread cold chain completed");
    EmitStageMetrics(tracer, t1_family, report);
    EmitScalingMetrics(tracer, "", ".tN", report);
  }
  ms::Rng req_rng(args.seed + 1);
  const RequestPool pool = BuildRequests(*svc.AcquireSnapshot(), req_rng,
                                         kPoolItems);

  net::ServerOptions sopts;
  sopts.num_workers = static_cast<int>(workers);
  net::MappingServer server(svc, sopts);
  {
    const ms::Status st = server.Start();
    report.Attempt(st.ok(), "server Start: " + st.ToString());
    if (!st.ok()) {
      report.Check(false, "serve_rw: server started");
      return;
    }
  }
  std::vector<net::MappingClient> clients;
  for (size_t c = 0; c < conns; ++c) {
    auto cr = net::MappingClient::Connect("127.0.0.1", server.port());
    report.Attempt(cr.ok(), "client Connect: " + cr.status().ToString());
    if (!cr.ok()) {
      server.Stop();
      report.Check(false, "serve_rw: clients connected");
      return;
    }
    clients.push_back(std::move(cr).value());
  }

  // ------------------------------------------------------- timed phases
  std::vector<VersionLog> versions(conns);
  Writer writer(svc, *served->vocab, args.seed, n_tables, batch);
  writer.Start();
  const double ref_seconds = args.seconds * 0.55;
  const double step_seconds = args.seconds * 0.13;
  size_t phase = 0;
  // Warm-up at the reference rate, discarded: the first pass over the
  // payloads fills the server's per-value caches and allocator pools.
  RunPhase(clients, versions, pool,
           PhaseOps(args.seed, phase++,
                    static_cast<size_t>(kReferenceRate * args.seconds * 0.05)),
           kReferenceRate);
  const PhaseResult reference = RunPhase(
      clients, versions, pool,
      PhaseOps(args.seed, phase++,
               static_cast<size_t>(kReferenceRate * ref_seconds)),
      kReferenceRate);
  // The sweep brackets the capacity by doubling (or halving) from the
  // reference rate, then bisects the bracket geometrically. Each rate gets
  // two attempts: a scheduling stall from outside the process fails one
  // attempt, a rate beyond capacity fails both. An attempt that fell
  // kMaxLagSeconds behind was no stall, so it gets no second one. A
  // reference phase that meets the limit stands for the reference rate's
  // attempts.
  std::vector<PhaseResult> sweep;
  const auto meets = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      sweep.push_back(RunPhase(
          clients, versions, pool,
          PhaseOps(args.seed, phase++,
                   std::max<size_t>(1, static_cast<size_t>(rate * step_seconds))),
          rate));
      if (sweep.back().P99AllMs() <= kP99LimitMs) return true;
      if (sweep.back().unsent > 0) break;
    }
    return false;
  };
  double pass = 0.0, fail = 0.0;
  double rate = kReferenceRate;
  if (reference.P99AllMs() <= kP99LimitMs) {
    pass = rate;
    rate *= 2;
  }
  while (pass == 0.0 || fail == 0.0) {
    if (meets(rate)) {
      pass = rate;
      if (rate * 2 > kMaxSweepRate) break;
    } else {
      fail = rate;
      if (rate / 2 < kMinSweepRate) break;
    }
    rate = fail == 0.0 ? rate * 2 : rate / 2;
  }
  for (int step = 0; step < kBisections && pass > 0.0 && fail > 0.0; ++step) {
    const double mid = std::sqrt(pass * fail);
    (meets(mid) ? pass : fail) = mid;
  }
  const PhaseResult* best =
      pass == kReferenceRate && reference.P99AllMs() <= kP99LimitMs ? &reference
                                                                    : nullptr;
  for (const auto& p : sweep) {
    if (p.rate == pass && p.P99AllMs() <= kP99LimitMs) best = &p;
  }
  std::vector<double> apps_us[4];
  std::vector<double> pair_ratios;
  if (tracer.enabled()) {
    RunInProcess(svc, pool, args.seed, args.seconds * 0.2, tracer, apps_us,
                 &pair_ratios);
  }
  writer.Stop();

  // Publish latency: writer call until any connection first saw the
  // version that call published. Replaces and appends differ in cost, so
  // one median over both would jump between the two clusters with their
  // counts; each kind gets its own, and the metrics weight them equally,
  // as the writer issues them.
  std::vector<double> publish_ms[2], write_ms[2];  // [0] replace, [1] append
  size_t writes_ok = 0;
  for (const WriteRecord& w : writer.records()) {
    report.Attempt(w.ok, "writer batch");
    if (!w.ok) continue;
    ++writes_ok;
    const int kind = w.replace ? 0 : 1;
    write_ms[kind].push_back((w.end - w.start) * 1e3);
    double first = INFINITY;
    for (const VersionLog& log : versions) {
      for (const auto& [v, t] : log) {
        if (v >= w.version) {
          first = std::min(first, t);
          break;
        }
      }
    }
    if (std::isfinite(first)) publish_ms[kind].push_back((first - w.start) * 1e3);
  }
  report.Check(writes_ok >= 2, "serve_rw: the writer published at least twice");
  report.Check(!publish_ms[0].empty() && !publish_ms[1].empty(),
               "serve_rw: readers saw a published replace and append");
  const double publish_p50 = (Median(publish_ms[0]) + Median(publish_ms[1])) / 2;
  const double write_p50 = (Median(write_ms[0]) + Median(write_ms[1])) / 2;
  for (const auto* p : {&reference}) {
    for (const Sample& s : p->samples) report.Attempt(s.ok, "remote request");
  }
  for (const auto& p : sweep) {
    for (const Sample& s : p.samples) report.Attempt(s.ok, "remote request");
  }

  // ------------------------------------------------------ correctness
  const size_t divergent =
      CountDivergence(clients[0], svc, pool, args.perturb);
  report.Check(divergent == 0, "serve_rw: " + std::to_string(divergent) +
                                   " remote responses differ from the "
                                   "in-process encode");
  report.Check(best != nullptr, "serve_rw: some fixed rate met the p99 limit");
  std::optional<net::StatsResponse> stats;
  if (auto r = clients[0].Stats(); r.ok()) stats = std::move(r).value();
  report.Check(stats.has_value(), "serve_rw: server Stats answered");
  for (auto& c : clients) c.Close();
  server.Stop();
  const double snapshot_bytes = served->snapshot_bytes;
  if (!timed_setups(setup_reps - 2)) return;

  // ------------------------------------------------------------ report
  std::vector<double> lat[4], rtt[4], lag;
  for (const Sample& s : reference.samples) {
    if (!s.ok) continue;
    lat[s.type].push_back(s.latency_us);
    rtt[s.type].push_back(s.rtt_us);
    lag.push_back(s.lag_ms);
  }
  report.Meta("threads.server_workers", static_cast<double>(workers));
  report.Meta("threads.connections", static_cast<double>(conns));
  report.Meta("threads.writer", 1.0);
  report.Meta("tables", static_cast<double>(n_tables));
  report.Meta("batch_tables", static_cast<double>(batch));
  report.Meta("mappings", static_cast<double>(initial_mappings));
  report.Meta("reference_rate", kReferenceRate);
  report.Meta("p99_limit_ms", kP99LimitMs);
  for (int t = 0; t < 4; ++t) {
    report.Meta(std::string("samples.") + kTypeNames[t],
                static_cast<double>(lat[t].size()));
  }
  report.Meta("writes", static_cast<double>(writes_ok));
  std::cout << "serve_rw: " << n_tables << " tables, " << initial_mappings
            << " mappings; " << workers << " server workers, " << conns
            << " connections, 1 writer\n  reference " << kReferenceRate
            << " req/s: " << reference.samples.size() << " requests";
  for (int t = 0; t < 4; ++t) {
    std::cout << ", " << kTypeNames[t] << " p50/p99 " << Median(lat[t])
              << "/" << Quantile(lat[t], 0.99) << " us";
  }
  std::cout << "\n  sweep:";
  for (const auto& p : sweep) {
    std::cout << " " << p.rate << " req/s -> p99 " << p.P99AllMs() << " ms ("
              << p.samples.size() << " done, " << p.unsent << " abandoned);";
  }
  std::cout << "\n  writes " << writes_ok << ", write p50 replace/append "
            << Median(write_ms[0]) << "/" << Median(write_ms[1])
            << " ms, publish p50 replace/append " << Median(publish_ms[0])
            << "/" << Median(publish_ms[1]) << " ms\n";

  report.Detail("correct_p50_us", Median(lat[kCorrect]), "us");
  report.Detail("serve_max_rps", best ? best->Achieved() : 0.0, "1/s");
  report.Detail("publish_p50_ms", publish_p50, "ms");
  if (!tracer.enabled()) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("synth_tables_per_s",
                  static_cast<double>(n_tables) / Median(synth_s), "tables/s");
    // A remote read: the mean of the four request types' medians, so the
    // 80% of lookups (~0.3 ms, mostly transport) do not hide the scans.
    double read_ms = 0.0;
    for (int t = 0; t < 4; ++t) read_ms += Median(lat[t]) / 1e3 / 4;
    report.Metric("op_p50_ms", read_ms, "ms");
    return;
  }

  // ---------------------------------------------------- per-layer figures
  // The remote tails: on a shared host, multi-millisecond scheduling stalls
  // touch about 1% of requests, so their run-to-run spread is wide.
  report.Detail("lookup_p50_us", Median(lat[kLookup]), "us");
  report.Detail("lookup_p99_us", Quantile(lat[kLookup], 0.99), "us");
  report.Detail("correct_p99_us", Quantile(lat[kCorrect], 0.99), "us");
  report.Detail("fill_p99_us", Quantile(lat[kFill], 0.99), "us");
  report.Detail("join_p99_us", Quantile(lat[kJoin], 0.99), "us");
  report.Detail("persist.save_s", Median(save_s), "s");
  report.Detail("persist.open_s", Median(open_s), "s");
  report.Detail("persist.snapshot_bytes", snapshot_bytes, "bytes");
  for (int t = 0; t < 4; ++t) {
    const std::string n = std::string("apps.") + kTypeNames[t];
    report.Detail(n + "_p50_us", Median(apps_us[t]), "us");
    report.Detail(n + "_p99_us", Quantile(apps_us[t], 0.99), "us");
  }
  report.Detail("apps.publish_ms", write_p50, "ms");
  static constexpr net::MsgType kReq[4] = {
      net::MsgType::kLookupBatchReq, net::MsgType::kSuggestCorrectionsReq,
      net::MsgType::kAutoFillReq, net::MsgType::kAutoJoinReq};
  double server_lookup_p50 = 0.0;
  for (int t = 0; t < 4; ++t) {
    net::RequestTypeStats rs;
    for (const auto& [type, s] : stats->per_type) {
      if (type == static_cast<uint8_t>(kReq[t])) rs = s;
    }
    if (t == kLookup) server_lookup_p50 = rs.p50_us;
    const std::string n = std::string("net.server_") + kTypeNames[t];
    report.Detail(n + "_p50_us", rs.p50_us, "us");
    report.Detail(n + "_p99_us", rs.p99_us, "us");
  }
  report.Detail("net.transport_us", Median(rtt[kLookup]) - server_lookup_p50,
                "us");
  report.Detail("net.bytes_per_req",
                stats->total_requests > 0
                    ? static_cast<double>(stats->bytes_in + stats->bytes_out) /
                          static_cast<double>(stats->total_requests)
                    : 0.0,
                "bytes");
  report.Detail("net.generator_lag_ms", Quantile(lag, 0.99), "ms");
  report.Metric("obs.trace_overhead_frac", Median(pair_ratios) - 1.0, "ratio");
}

}  // namespace perfbench
