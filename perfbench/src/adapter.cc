#include "adapter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "core/picker.h"
#include "core/ps3_picker.h"
#include "core/ps3_trainer.h"
#include "core/training_data.h"
#include "featurize/featurizer.h"
#include "io/cold_source.h"
#include "io/fault_injector.h"
#include "io/partition_store.h"
#include "io/prefetch_pipeline.h"
#include "query/compiler.h"
#include "query/evaluator.h"
#include "query/metrics.h"
#include "runtime/query_scheduler.h"
#include "stats/stats_builder.h"
#include "storage/partition_source.h"
#include "storage/sharded_table.h"
#include "workload/datasets.h"
#include "workload/generator.h"

#include "fold.h"

namespace perfbench {
namespace {

using namespace ps3;

// The table and the PS3 model are fixtures: the same for every seed, so
// a run's seed changes only the traffic served against them.
constexpr uint64_t kDataSeed = 7;
constexpr uint64_t kTrainSeed = 101;
constexpr size_t kTrainQueries = 16;
constexpr size_t kShards = 8;
constexpr size_t kCandidatesPerQuery = 8;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order-independent digest of an answer's exact bits: groups are
/// visited in sorted key order.
uint64_t HashAnswer(const query::QueryAnswer& answer, uint64_t h) {
  std::vector<const query::QueryAnswer::value_type*> rows;
  rows.reserve(answer.size());
  for (const auto& row : answer) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  h = Fold(h, rows.size());
  for (const auto* row : rows) {
    for (int64_t k : row->first) h = Fold(h, static_cast<uint64_t>(k));
    for (double v : row->second) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = Fold(h, bits);
    }
  }
  return h;
}

bool BitIdentical(const query::QueryAnswer& a, const query::QueryAnswer& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, vals] : a) {
    auto it = b.find(key);
    if (it == b.end() || it->second.size() != vals.size()) return false;
    if (!vals.empty() && std::memcmp(vals.data(), it->second.data(),
                                     vals.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Times every demand Acquire of the cold store. Counting partitions and
/// the encoded bytes of the acquired segments is always on; spans and the
/// prefetch-hit probe only while tracing. Prefetch staging goes to the
/// store directly and is not counted.
class TimedSource final : public io::ColdShardedSource {
 public:
  TimedSource(io::PartitionStore* store, io::PrefetchPipeline* prefetch,
              Tracer* tracer)
      : io::ColdShardedSource(store, kShards,
                              storage::ShardAssignment::kRange, prefetch),
        tracer_(tracer),
        prefetch_(prefetch) {}

  /// The evaluator's scan path.
  Result<storage::PinnedPartition> Acquire(
      size_t i, const storage::ColumnSet& columns,
      const storage::ScanControl& control) const override {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(ColdScanBytes({i}, columns), std::memory_order_relaxed);
    if (!tracer_->enabled()) {
      return io::ColdShardedSource::Acquire(i, columns, control);
    }
    CountPrefetchHit(i, columns);
    const Clock::time_point start = Clock::now();
    Result<storage::PinnedPartition> r =
        io::ColdShardedSource::Acquire(i, columns, control);
    tracer_->Record(SpanKind::kAcquire, start, Clock::now());
    return r;
  }
  using io::ColdShardedSource::Acquire;

  /// The prefetch pipeline's entry: remembers which segments it may
  /// stage before handing the plan on.
  void StageHint(const std::vector<std::vector<size_t>>& plan, size_t current,
                 const storage::ColumnSet& columns) const override {
    NoteHint(plan, current, columns);
    io::ColdShardedSource::StageHint(plan, current, columns);
  }
  void StageHint(const std::vector<std::vector<size_t>>& plan, size_t current,
                 const storage::ColumnSet& columns,
                 const storage::ScanControl& control) const override {
    NoteHint(plan, current, columns);
    io::ColdShardedSource::StageHint(plan, current, columns, control);
  }

  uint64_t acquires() const {
    return acquires_.load(std::memory_order_relaxed);
  }
  uint64_t acquired_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_hits() const {
    return prefetch_hits_.load(std::memory_order_relaxed);
  }
  /// Forgets pending hints; called with the cache empty and no prefetch in
  /// flight.
  void ResetHints() {
    std::lock_guard<std::mutex> lock(hinted_mu_);
    hinted_.clear();
  }

 private:
  /// Segments of the shards the pipeline may stage next (at most
  /// max_ahead_shards past `current`) that are not resident now.
  void NoteHint(const std::vector<std::vector<size_t>>& plan, size_t current,
                const storage::ColumnSet& columns) const {
    if (prefetch_ == nullptr || !tracer_->enabled()) return;
    const size_t ncols = store().schema().num_columns();
    const std::vector<size_t> cols = columns.Resolve(ncols);
    const size_t ahead = io::PrefetchPipeline::Options{}.max_ahead_shards;
    std::lock_guard<std::mutex> lock(hinted_mu_);
    for (size_t s = current + 1; s <= current + ahead && s < plan.size();
         ++s) {
      for (size_t p : plan[s]) {
        for (size_t c : cols) {
          if (!store().cache().ContainsAll(p, {c})) {
            hinted_.insert(p * ncols + c);
          }
        }
      }
    }
  }

  /// Counts a demand Acquire that finds every requested segment resident
  /// although one of them was not resident when a later-unconsumed hint
  /// named it. With one client, nothing but the prefetch pipeline loads a
  /// partition between a scan's hint and its demand, so that segment was
  /// staged. The demand consumes the hints of its segments.
  void CountPrefetchHit(size_t i, const storage::ColumnSet& columns) const {
    if (prefetch_ == nullptr) return;
    const size_t ncols = store().schema().num_columns();
    const std::vector<size_t> cols = columns.Resolve(ncols);
    const bool resident = store().cache().ContainsAll(i, cols);
    bool hinted = false;
    std::lock_guard<std::mutex> lock(hinted_mu_);
    for (size_t c : cols) hinted |= hinted_.erase(i * ncols + c) > 0;
    if (resident && hinted) {
      prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Tracer* tracer_;
  io::PrefetchPipeline* prefetch_;
  mutable std::atomic<uint64_t> acquires_{0};
  mutable std::atomic<uint64_t> bytes_{0};
  mutable std::atomic<uint64_t> prefetch_hits_{0};
  mutable std::mutex hinted_mu_;
  /// Hinted, not-yet-demanded segments that were not resident when
  /// hinted, as partition * num_columns + column; guarded by hinted_mu_.
  mutable std::unordered_set<size_t> hinted_;
};

/// Wraps the learned picker: records a pick span and keeps the last
/// selection and PickTelemetry for main.cc.
class TimedPicker final : public core::PartitionPicker {
 public:
  struct Last {
    std::vector<uint32_t> picked;
    core::PickTelemetry telemetry;
  };

  TimedPicker(const core::PartitionPicker* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }

  core::Selection Pick(const query::Query& query, size_t budget,
                       RandomEngine* rng,
                       core::PickTelemetry* telemetry) const override {
    core::PickTelemetry t;
    const Clock::time_point start = Clock::now();
    core::Selection sel = inner_->Pick(query, budget, rng, &t);
    tracer_->Record(SpanKind::kPick, start, Clock::now());
    if (telemetry != nullptr) *telemetry = t;
    Last last;
    last.telemetry = t;
    for (const auto& wp : sel.parts) {
      last.picked.push_back(static_cast<uint32_t>(wp.partition));
    }
    std::lock_guard<std::mutex> lock(mu_);
    last_ = std::move(last);
    return sel;
  }

  Last TakeLast() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(last_);
  }

 private:
  const core::PartitionPicker* inner_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  mutable Last last_;  ///< guarded by mu_
};

}  // namespace

IoCounters IoCounters::operator-(const IoCounters& o) const {
  IoCounters d;
  d.cold_loads = cold_loads - o.cold_loads;
  d.bytes_loaded = bytes_loaded - o.bytes_loaded;
  d.retries = retries - o.retries;
  d.transient_errors = transient_errors - o.transient_errors;
  d.load_errors = load_errors - o.load_errors;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.cache_evictions = cache_evictions - o.cache_evictions;
  d.prefetch_staged = prefetch_staged - o.prefetch_staged;
  d.prefetch_hits = prefetch_hits - o.prefetch_hits;
  return d;
}

struct Engine::Impl {
  EngineConfig cfg;
  Tracer* tracer;

  std::shared_ptr<storage::Table> laid_out;
  workload::WorkloadSpec spec;
  std::unique_ptr<storage::PartitionedTable> table;
  std::unique_ptr<stats::TableStats> stats;
  std::unique_ptr<featurize::Featurizer> featurizer;
  core::Ps3Model model;
  std::unique_ptr<core::Ps3Picker> ps3;
  std::unique_ptr<TimedPicker> picker;

  // Declared in dependency order so they are destroyed in reverse:
  // the source and pipeline borrow the scheduler and store.
  std::shared_ptr<io::FaultInjector> faults;
  std::unique_ptr<io::PartitionStore> store;
  std::unique_ptr<runtime::QueryScheduler> scheduler;
  std::unique_ptr<io::PrefetchPipeline> prefetch;
  std::unique_ptr<TimedSource> source;
  uint64_t decoded_bytes = 0;

  std::vector<query::Query> queries;
  std::vector<query::QueryAnswer> exact;  ///< resident kScalar answers
  std::vector<uint64_t> approx_ref;       ///< resident approximate hashes

  query::ExecOptions Exec() const {
    query::ExecOptions opts;
    opts.policy = query::ExecPolicy::kVectorized;
    opts.num_threads = cfg.lanes;
    return opts;
  }
  runtime::ApproxOptions Approx(size_t i) const {
    runtime::ApproxOptions a;
    a.sampling_fraction = kSamplingFraction;
    a.seed = Fold(cfg.seed, i);
    return a;
  }
};

Engine::Engine(EngineConfig config, Tracer* tracer)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(config);
  impl_->tracer = tracer;
}

Engine::~Engine() = default;

SetupTimes Engine::Setup() {
  Impl& m = *impl_;
  SetupTimes t;
  const Clock::time_point setup_start = Clock::now();

  Clock::time_point step = Clock::now();
  workload::DatasetBundle bundle = workload::MakeTpchStar(kRows, kDataSeed);
  auto sorted = bundle.table->SortedBy(bundle.default_sort);
  if (!sorted.ok()) throw std::runtime_error(sorted.status().ToString());
  m.laid_out = std::make_shared<storage::Table>(std::move(sorted).value());
  m.spec = bundle.spec;
  m.table = std::make_unique<storage::PartitionedTable>(m.laid_out,
                                                        kPartitions);
  t.data_s = SecondsSince(step);

  step = Clock::now();
  stats::StatsOptions so;
  for (const auto& name : m.spec.groupby_columns) {
    so.grouping_columns.push_back(
        static_cast<size_t>(m.laid_out->schema().FindColumn(name)));
  }
  m.stats = std::make_unique<stats::TableStats>(
      stats::StatsBuilder(so).Build(*m.table));
  t.stats_s = SecondsSince(step);

  step = Clock::now();
  m.featurizer = std::make_unique<featurize::Featurizer>(
      m.laid_out->schema(), m.stats.get());
  const core::PickerContext ctx{m.table.get(), m.stats.get(),
                                m.featurizer.get()};
  workload::QueryGenerator gen(m.laid_out.get(), m.spec);
  core::TrainingData tdata =
      core::BuildTrainingData(ctx, gen.GenerateSet(kTrainQueries, kTrainSeed));
  core::Ps3Options popts;
  popts.feature_selection.restarts = 1;
  popts.feature_selection.eval_queries = 5;
  m.model = core::TrainPs3(ctx, tdata, popts);
  m.ps3 = std::make_unique<core::Ps3Picker>(ctx, &m.model);
  m.picker = std::make_unique<TimedPicker>(m.ps3.get(), m.tracer);
  t.train_s = SecondsSince(step);

  step = Clock::now();
  Status spilled = io::PartitionStore::Spill(*m.table, m.cfg.spill_dir);
  if (!spilled.ok()) throw std::runtime_error(spilled.ToString());
  t.spill_s = SecondsSince(step);

  step = Clock::now();
  io::PartitionStore::Options sopts;
  sopts.simulated_load_delay_us = m.cfg.rtt_us;
  sopts.simulated_load_bandwidth_mbps = m.cfg.bandwidth_mbps;
  if (m.cfg.fault_rate > 0.0) {
    io::FaultPlan plan;
    plan.seed = Fold(m.cfg.seed, 0xFA17);
    plan.transient_rate = m.cfg.fault_rate;
    plan.latency_rate = m.cfg.fault_rate;
    m.faults = std::make_shared<io::FaultInjector>(std::move(plan));
    sopts.faults = m.faults;
  }
  {
    // The budget is a share of the *decoded* table, the cache's unit;
    // the manifest gives it before any partition is read.
    auto probe = io::PartitionStore::Open(m.cfg.spill_dir, sopts);
    if (!probe.ok()) throw std::runtime_error(probe.status().ToString());
    const size_t ncols = (*probe)->schema().num_columns();
    std::vector<size_t> all(ncols);
    for (size_t c = 0; c < ncols; ++c) all[c] = c;
    m.decoded_bytes = 0;
    for (size_t p = 0; p < (*probe)->num_partitions(); ++p) {
      m.decoded_bytes += (*probe)->columns_bytes(p, all);
    }
  }
  sopts.cache_budget_bytes = std::max<size_t>(
      1, static_cast<size_t>(kCacheShare *
                             static_cast<double>(m.decoded_bytes)));
  auto opened = io::PartitionStore::Open(m.cfg.spill_dir, sopts);
  if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
  m.store = std::move(opened).value();
  runtime::QueryScheduler::Options qopts;
  qopts.num_drivers = 1;
  m.scheduler = std::make_unique<runtime::QueryScheduler>(qopts);
  if (m.cfg.prefetch) {
    m.prefetch = std::make_unique<io::PrefetchPipeline>(m.store.get(),
                                                        m.scheduler.get());
  }
  m.source = std::make_unique<TimedSource>(m.store.get(), m.prefetch.get(),
                                           m.tracer);
  t.open_s = SecondsSince(step);

  t.total_s = SecondsSince(setup_start);
  return t;
}

void Engine::PrepareReferences() {
  Impl& m = *impl_;
  // Stratified draw: generate kCandidatesPerQuery queries per stream slot,
  // order them by the bytes a full scan of their columns reads, and keep
  // one seeded pick from each consecutive group. Every seed's stream then
  // spans the same footprint range, so per-query averages of bytes, CPU
  // and latency differ less between seeds than a plain draw of a few dozen
  // queries would.
  const size_t n = m.cfg.num_queries;
  workload::QueryGenerator gen(m.laid_out.get(), m.spec);
  std::vector<query::Query> candidates =
      gen.GenerateSet(n * kCandidatesPerQuery, Fold(m.cfg.seed, 0x51));
  if (candidates.size() != n * kCandidatesPerQuery) {
    throw std::runtime_error("query generator returned too few queries");
  }
  std::vector<size_t> all(m.table->num_partitions());
  for (size_t p = 0; p < all.size(); ++p) all[p] = p;
  std::vector<std::pair<uint64_t, size_t>> by_bytes;
  for (size_t c = 0; c < candidates.size(); ++c) {
    by_bytes.emplace_back(
        m.source->ColdScanBytes(
            all, query::ReferencedColumns(query::CompileQuery(candidates[c]))),
        c);
  }
  std::sort(by_bytes.begin(), by_bytes.end());
  std::vector<std::pair<uint64_t, size_t>> chosen;
  for (size_t s = 0; s < n; ++s) {
    chosen.push_back(by_bytes[s * kCandidatesPerQuery +
                              Fold(m.cfg.seed, s) % kCandidatesPerQuery]);
  }
  // Serve the strata in a seeded order, not by size.
  std::sort(chosen.begin(), chosen.end(), [&](const auto& a, const auto& b) {
    return Fold(m.cfg.seed, a.second) < Fold(m.cfg.seed, b.second);
  });

  query::ExecOptions scalar;
  scalar.policy = query::ExecPolicy::kScalar;
  m.queries.clear();
  m.exact.clear();
  for (const auto& entry : chosen) {
    const query::Query& q = candidates[entry.second];
    m.queries.push_back(q);
    m.exact.push_back(query::ExactAnswer(
        q, query::EvaluateAllPartitions(q, *m.table, scalar)));
  }
  m.approx_ref.clear();
  if (m.cfg.mode == Mode::kApproximate) {
    // The same pick served from the resident table: the determinism
    // contract makes it bit-identical to the cold, cached, prefetched
    // scan.
    const storage::ShardedTable resident_table(*m.table, kShards);
    const storage::ResidentShardedSource resident(resident_table);
    for (size_t i = 0; i < m.queries.size(); ++i) {
      runtime::ApproxAnswer a =
          m.scheduler
              ->SubmitApproximate(m.queries[i], resident, *m.ps3,
                                  m.Approx(i), m.Exec())
              .get();
      m.approx_ref.push_back(
          HashAnswer(a.error_estimate, HashAnswer(a.value, 0)));
    }
  }
}

size_t Engine::num_queries() const { return impl_->queries.size(); }

QueryResult Engine::Run(size_t i) {
  Impl& m = *impl_;
  const query::Query& q = m.queries[i];
  QueryResult r;
  const io::StoreStats before = m.store->store_stats();
  const uint64_t acquires_before = m.source->acquires();
  const uint64_t bytes_before = m.source->acquired_bytes();
  runtime::ApproxAnswer approx;
  query::QueryAnswer exact;

  const Clock::time_point start = Clock::now();
  try {
    if (m.cfg.mode == Mode::kApproximate) {
      approx = m.scheduler
                   ->SubmitApproximate(q, *m.source, *m.picker, m.Approx(i),
                                       m.Exec())
                   .get();
    } else {
      exact = m.scheduler->Submit(q, *m.source, m.Exec()).get();
    }
    r.answered = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  const Clock::time_point end = Clock::now();
  r.latency_ms = std::chrono::duration<double, std::milli>(end - start).count();

  const io::StoreStats after = m.store->store_stats();
  r.cold_loads = after.cold_loads - before.cold_loads;
  r.retries = after.retries - before.retries;
  r.partitions_read =
      static_cast<size_t>(m.source->acquires() - acquires_before);
  r.bytes_read = m.source->acquired_bytes() - bytes_before;

  if (m.cfg.mode == Mode::kApproximate) {
    TimedPicker::Last last = m.picker->TakeLast();
    r.picked = std::move(last.picked);
    r.pick_ms = last.telemetry.total_ms;
    r.cluster_ms = last.telemetry.clustering_ms;
    if (r.answered) {
      r.answer_hash =
          HashAnswer(approx.error_estimate, HashAnswer(approx.value, 0));
      r.correct = r.answer_hash == m.approx_ref[i];
      r.rel_error =
          query::ComputeErrorMetrics(q, m.exact[i], approx.value).avg_rel_error;
    }
  } else if (r.answered) {
    r.answer_hash = HashAnswer(exact, 0);
    r.correct = BitIdentical(exact, m.exact[i]);
  }
  return r;
}

void Engine::ResetPass() {
  Impl& m = *impl_;
  if (m.prefetch) m.prefetch->Drain();
  m.store->cache().Clear();
  m.source->ResetHints();
  if (m.faults) m.faults->ResetAttempts();
}

IoCounters Engine::Counters() const {
  const Impl& m = *impl_;
  IoCounters c;
  const io::StoreStats s = m.store->store_stats();
  c.cold_loads = s.cold_loads;
  c.bytes_loaded = s.bytes_loaded;
  c.retries = s.retries;
  c.transient_errors = s.transient_errors;
  c.load_errors = s.load_errors;
  const io::CacheStats cs = m.store->cache().stats();
  c.cache_hits = cs.hits;
  c.cache_misses = cs.misses;
  c.cache_evictions = cs.evictions;
  if (m.prefetch) c.prefetch_staged = m.prefetch->stats().staged;
  c.prefetch_hits = m.source->prefetch_hits();
  return c;
}

Footprint Engine::footprint() const {
  const Impl& m = *impl_;
  Footprint f;
  f.rows = m.store->num_rows();
  f.partitions = m.store->num_partitions();
  f.table_decoded_bytes = m.decoded_bytes;
  f.disk_bytes = m.store->total_bytes();
  f.cache_budget_bytes = m.store->cache().budget_bytes();
  f.stats_kb_per_partition = m.stats->ComputeStorageReport().total_kb;
  return f;
}

double Engine::ResidentScanMs(size_t i) const {
  const Impl& m = *impl_;
  const Clock::time_point start = Clock::now();
  auto partials = query::EvaluateAllPartitions(m.queries[i], *m.table,
                                               m.Exec());
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  if (partials.size() != m.table->num_partitions()) {
    throw std::runtime_error("resident scan returned a short answer");
  }
  return ms;
}

double Engine::PickMs(size_t i, double* cluster_ms) const {
  const Impl& m = *impl_;
  const size_t n = m.table->num_partitions();
  const size_t budget = std::max<size_t>(
      1, std::min(n, static_cast<size_t>(std::ceil(kSamplingFraction *
                                                   static_cast<double>(n)))));
  RandomEngine rng(m.Approx(i).seed);
  core::PickTelemetry t;
  m.ps3->Pick(m.queries[i], budget, &rng, &t);
  *cluster_ms = t.clustering_ms;
  return t.total_ms;
}

}  // namespace perfbench
