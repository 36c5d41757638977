#include "io/prefetch_pipeline.h"

#include <algorithm>
#include <utility>

#include "runtime/worker_pool.h"

namespace ps3::io {

PrefetchPipeline::PrefetchPipeline(PartitionStore* store,
                                   runtime::QueryScheduler* scheduler)
    : PrefetchPipeline(store, scheduler, Options()) {}

namespace {

size_t BatchCapBytes(const PrefetchPipeline::Options& options) {
  const double f =
      std::min(1.0, std::max(0.0, options.interactive_reserve_fraction));
  return static_cast<size_t>(
      static_cast<double>(options.readahead_bytes) * (1.0 - f));
}

}  // namespace

PrefetchPipeline::PrefetchPipeline(PartitionStore* store,
                                   runtime::QueryScheduler* scheduler,
                                   Options options)
    : store_(store),
      scheduler_(scheduler),
      options_(options),
      batch_cap_bytes_(BatchCapBytes(options)),
      dispatcher_([this] { DispatchMain(); }) {}

PrefetchPipeline::~PrefetchPipeline() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  // The dispatch thread exits only once the queue is empty, so every
  // admitted batch runs and returns its reservation.
  dispatcher_.join();
}

bool PrefetchPipeline::TryReserve(size_t encoded, size_t decoded,
                                  size_t committed, QueryClass query_class) {
  std::lock_guard<std::mutex> lock(budget_mu_);
  // Cache headroom: what is pinned, staged and still in flight must keep
  // fitting the budget once this lands.
  if (committed + inflight_decoded_ + decoded >
      store_->cache().budget_bytes()) {
    return false;
  }
  // The total pool bounds everyone; batch additionally stops at its
  // share, leaving the reserve to interactive staging (which may also
  // soak up whatever batch left idle).
  if (inflight_batch_ + inflight_interactive_ + encoded >
      options_.readahead_bytes) {
    return false;
  }
  if (query_class == QueryClass::kBatch) {
    if (inflight_batch_ + encoded > batch_cap_bytes_) return false;
    inflight_batch_ += encoded;
  } else {
    inflight_interactive_ += encoded;
  }
  inflight_decoded_ += decoded;
  return true;
}

void PrefetchPipeline::Release(const Batch& batch) {
  std::lock_guard<std::mutex> lock(budget_mu_);
  if (batch.query_class == QueryClass::kBatch) {
    inflight_batch_ -= batch.encoded_bytes;
  } else {
    inflight_interactive_ -= batch.encoded_bytes;
  }
  inflight_decoded_ -= batch.decoded_bytes;
}

void PrefetchPipeline::StageAhead(
    const std::vector<std::vector<size_t>>& plan, size_t current,
    const storage::ColumnSet& columns, QueryClass query_class) {
  std::vector<size_t> parts;
  for (size_t s = current;
       s < plan.size() && s - current <= options_.max_ahead_shards; ++s) {
    parts.insert(parts.end(), plan[s].begin(), plan[s].end());
  }
  if (!parts.empty()) Stage(std::move(parts), columns, query_class);
}

void PrefetchPipeline::Stage(std::vector<size_t> parts,
                             const storage::ColumnSet& columns,
                             QueryClass query_class) {
  const std::vector<size_t> hinted =
      columns.Resolve(store_->schema().num_columns());
  // Restage what the plan already has resident before measuring the
  // headroom: those segments then count as staged, sit at the MRU end,
  // and the loads admitted below can only evict segments scans released.
  PartitionCache& cache = store_->cache();
  cache.Restage(parts, hinted);
  const CacheStats cs = cache.stats();
  const size_t committed = cs.bytes_pinned + cs.bytes_staged;

  // Admission up front, so the shared pool is charged before the batch
  // is queued (otherwise N queries could all stage "within budget"
  // simultaneously). Only a partition's missing hinted segments charge
  // it: encoded bytes against the pool, decoded bytes against the cache
  // headroom. Charging the cache at encoded size would let compressed
  // segments overcommit it by their compression ratio.
  Batch batch;
  batch.query_class = query_class;
  batch.loads.reserve(parts.size());
  for (size_t p : parts) {
    // Admission claims the missing segments in the store, so a later
    // window never admits them twice and a scan that gets there before
    // the load waits for it rather than reading them itself. Segments
    // cached or already claimed are someone else's bytes.
    std::vector<size_t> missing = store_->ClaimForPreload(p, hinted);
    if (missing.empty()) {
      skipped_cached_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const size_t encoded = store_->encoded_columns_bytes(p, missing);
    const size_t decoded = store_->columns_bytes(p, missing);
    if (!TryReserve(encoded, decoded, committed, query_class)) {
      store_->DropClaims(p, missing);
      skipped_budget_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    batch.encoded_bytes += encoded;
    batch.decoded_bytes += decoded;
    batch.loads.push_back(Load{p, std::move(missing)});
  }
  if (batch.loads.empty()) return;
  const size_t admitted = batch.loads.size();
  try {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(batch));
    ++outstanding_;
  } catch (...) {
    // Dispatch failed (allocation): the batch will never run, so return
    // its claims and reservation here — otherwise the bytes leak from the
    // pool forever. Advisory, like every staging failure. A failed
    // push_back leaves `batch` intact.
    for (const Load& load : batch.loads) {
      store_->DropClaims(load.part, load.cols);
    }
    Release(batch);
    load_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  staged_.fetch_add(admitted, std::memory_order_relaxed);
  queue_cv_.notify_one();
}

void PrefetchPipeline::RunBatch(const Batch& batch) {
  PartitionStore* store = store_;
  runtime::WorkerPool::TaskOptions topts;
  topts.max_lanes = options_.load_lanes;
  topts.query_class = batch.query_class;
  std::vector<char> ran(batch.loads.size(), 0);
  try {
    scheduler_->pool().ParallelFor(
        batch.loads.size(),
        [this, store, &batch, &ran](size_t k) {
          const Load& load = batch.loads[k];
          ran[k] = 1;
          // Prefetch is advisory, so nothing may escape: a thrown load
          // (bad_alloc during rehydration) would fail the whole pool job
          // and drain sibling items without running them.
          // PreloadClaimed releases the claims on every path.
          try {
            Status s = store->PreloadClaimed(load.part, load.cols);
            if (!s.ok()) load_errors_.fetch_add(1, std::memory_order_relaxed);
          } catch (...) {
            load_errors_.fetch_add(1, std::memory_order_relaxed);
          }
        },
        topts);
  } catch (...) {
    // ParallelFor itself failing (job allocation) is still advisory —
    // the demand path loads what staging didn't — but the claims and the
    // reservation of loads that never ran must not leak with it.
    for (size_t k = 0; k < batch.loads.size(); ++k) {
      if (!ran[k]) store->DropClaims(batch.loads[k].part, batch.loads[k].cols);
    }
    load_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  // One release per batch, when the whole batch has landed: "no
  // reservation outlives its batch" stays auditable on every path.
  Release(batch);
}

void PrefetchPipeline::DispatchMain() {
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    RunBatch(batch);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --outstanding_;
    }
    idle_cv_.notify_all();
  }
}

void PrefetchPipeline::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

PrefetchPipeline::PrefetchStats PrefetchPipeline::stats() const {
  PrefetchStats s;
  s.staged = staged_.load(std::memory_order_relaxed);
  s.skipped_cached = skipped_cached_.load(std::memory_order_relaxed);
  s.skipped_budget = skipped_budget_.load(std::memory_order_relaxed);
  s.load_errors = load_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(budget_mu_);
    s.inflight_batch_bytes = inflight_batch_;
    s.inflight_interactive_bytes = inflight_interactive_;
  }
  s.inflight_bytes = s.inflight_batch_bytes + s.inflight_interactive_bytes;
  return s;
}

}  // namespace ps3::io
