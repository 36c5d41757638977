// Asynchronous read-ahead for cold scans: stages a scan plan's hinted
// column segments into the store's cache while the scan that asked for
// them is still running.
//
// A picker fixes the whole partition plan before any byte is read (paper
// §4), so every cold read of a scan can be in flight at once; that is what
// hides a remote store's round trip. At each shard entry the evaluator
// calls StageAhead(plan, current): the pipeline admits the not-yet-
// claimed partitions of plan[current .. current + max_ahead_shards] and
// hands them to its own dispatch thread, which fans the segment loads out
// across runtime::WorkerPool lanes. Staging never waits for a query
// driver: the query that hinted the plan may hold the scheduler's only
// driver for as long as it runs.
//
// Admission is bounded only by bytes, in two units, because segments
// spill compressed:
// - the shared read-ahead pool meters *encoded* bytes (what the disk and
//   link move). Every query prefetching through one pipeline draws from
//   the same pool, so N concurrent cold queries can't multiply read-ahead
//   by N. The pool is split by admission class: batch staging stops at
//   (1 - interactive_reserve_fraction) of it, while interactive staging
//   may use all of it, so batch read-ahead can never starve the latency
//   class;
// - the cache headroom meters *decoded* bytes (what a landed segment
//   occupies): budget - pinned - staged-but-unscanned - decoded bytes
//   still in flight. Segments the scans already released are not counted,
//   they are what staging may evict. Staging within this headroom never
//   evicts a staged segment its scan has not reached yet. The resident
//   hinted segments of the staged plan are restaged (moved to MRU and
//   counted as staged) first, so staging the missing segments of a
//   partially resident partition can't evict the ones it already has.
// Segments that fit neither bound are skipped, not queued: the scan
// demand-loads them. Prefetch is advisory and never affects answers, only
// timing; staging errors are swallowed (counted in stats) and the demand
// path surfaces real errors.
//
// Lifetime: borrows the store and the scheduler (for its worker pool);
// destroy the pipeline before either. The destructor drains every
// admitted batch and stops the dispatch thread.
#ifndef PS3_IO_PREFETCH_PIPELINE_H_
#define PS3_IO_PREFETCH_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/query_control.h"
#include "io/partition_store.h"
#include "runtime/query_scheduler.h"
#include "storage/column_set.h"

namespace ps3::io {

class PrefetchPipeline {
 public:
  /// max_ahead_shards value that stages the whole remaining plan. Half
  /// the range, so current + max_ahead_shards cannot overflow.
  static constexpr size_t kWholePlan = std::numeric_limits<size_t>::max() / 2;

  struct Options {
    /// Cap on *encoded* (on-disk) bytes admitted but not yet landed,
    /// across *all* queries sharing this pipeline — the read-ahead IO
    /// pool meters what the disk/link actually moves. The decoded
    /// footprint of staged segments is bounded separately by the
    /// store's cache headroom.
    size_t readahead_bytes = size_t{64} << 20;
    /// Share of `readahead_bytes` reserved for interactive-class
    /// read-ahead: batch staging stops admitting once batch in-flight
    /// bytes reach (1 - fraction) * budget, while interactive staging may
    /// draw on the whole pool (including whatever the batch share left
    /// idle). This is the multi-tenant isolation knob — any number of
    /// batch scans sharing the pipeline leave this fraction of read-ahead
    /// IO available to interactive cold loads. 0 restores the single
    /// shared pool. Clamped to [0, 1].
    double interactive_reserve_fraction = 0.25;
    /// Worker-pool lanes one staged batch may fan its loads across. Loads
    /// are latency-bound (they sleep through the simulated store RTT), so
    /// oversubscribing lanes is cheap and hides more of the wait.
    int load_lanes = 16;
    /// Shards staged beyond the one being entered: StageAhead covers
    /// plan[current .. current + max_ahead_shards]. 0 stages only the
    /// entered shard. The default stages the whole remaining plan, which
    /// the picker fixed before the scan began; on the serving benchmark
    /// (approx_cold, 8 shards) a 4-shard window served p50 latency ~10%
    /// slower at the same bytes loaded.
    size_t max_ahead_shards = kWholePlan;
  };

  /// Default options.
  PrefetchPipeline(PartitionStore* store, runtime::QueryScheduler* scheduler);
  PrefetchPipeline(PartitionStore* store, runtime::QueryScheduler* scheduler,
                   Options options);
  ~PrefetchPipeline();

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  /// Scan-entry hook (ColdShardedSource::StageHint): stages the hinted
  /// columns of plan[current .. current + max_ahead_shards], bounded by
  /// `query_class`'s share of the read-ahead pool and by the cache
  /// headroom. Non-blocking; safe to call from pool lanes mid-scan.
  void StageAhead(const std::vector<std::vector<size_t>>& plan,
                  size_t current, const storage::ColumnSet& columns,
                  QueryClass query_class = QueryClass::kBatch);

  /// Stages the given partitions' hinted columns into the store's cache
  /// asynchronously, under the same bounds. Non-blocking; safe to call
  /// from pool lanes mid-scan.
  void Stage(std::vector<size_t> parts,
             const storage::ColumnSet& columns = storage::ColumnSet::All(),
             QueryClass query_class = QueryClass::kBatch);

  /// Waits until every admitted batch has landed (or failed).
  void Drain();

  struct PrefetchStats {
    uint64_t staged = 0;          ///< partitions handed to a staging batch
    uint64_t skipped_cached = 0;  ///< already cached (or loading)
    uint64_t skipped_budget = 0;  ///< didn't fit the pool or the headroom
    uint64_t load_errors = 0;     ///< advisory failures (demand path retries)
    /// Encoded bytes currently reserved against the read-ahead pool, per
    /// class and total. Every reservation is released when its batch
    /// finishes (success, load error, or a failed dispatch alike), so
    /// with no staging in flight these are exactly 0 — the invariant the
    /// budget-leak tests pin.
    size_t inflight_batch_bytes = 0;
    size_t inflight_interactive_bytes = 0;
    size_t inflight_bytes = 0;
  };
  PrefetchStats stats() const;

 private:
  struct Load {
    size_t part;
    /// The segments claimed and reserved at admission; the batch loads
    /// exactly these, so it can never overrun its reservation.
    std::vector<size_t> cols;
  };
  /// One admitted Stage call's loads and the reservation they hold.
  struct Batch {
    std::vector<Load> loads;
    size_t encoded_bytes = 0;
    size_t decoded_bytes = 0;
    QueryClass query_class = QueryClass::kBatch;
  };

  /// Reserves `encoded` bytes of `query_class`'s pool share and `decoded`
  /// bytes of cache headroom, given `committed` = the cache's pinned +
  /// staged bytes. Fails without reserving if either bound would be
  /// exceeded. Admission and release share one small mutex — staging runs
  /// per partition batch, far off the per-chunk hot path.
  bool TryReserve(size_t encoded, size_t decoded, size_t committed,
                  QueryClass query_class);
  void Release(const Batch& batch);
  /// Loads every claim of `batch` across pool lanes, then releases its
  /// reservation. Releases every claim and never throws.
  void RunBatch(const Batch& batch);
  void DispatchMain();

  PartitionStore* store_;
  runtime::QueryScheduler* scheduler_;
  const Options options_;
  /// Batch admission ceiling: (1 - interactive_reserve_fraction) *
  /// readahead_bytes, precomputed.
  const size_t batch_cap_bytes_;

  mutable std::mutex budget_mu_;
  size_t inflight_batch_ = 0;        ///< guarded by budget_mu_
  size_t inflight_interactive_ = 0;  ///< guarded by budget_mu_
  size_t inflight_decoded_ = 0;      ///< guarded by budget_mu_
  std::atomic<uint64_t> staged_{0};
  std::atomic<uint64_t> skipped_cached_{0};
  std::atomic<uint64_t> skipped_budget_{0};
  std::atomic<uint64_t> load_errors_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;  ///< wakes the dispatch thread
  std::condition_variable idle_cv_;   ///< wakes Drain
  std::deque<Batch> queue_;           ///< guarded by queue_mu_
  size_t outstanding_ = 0;  ///< queued + running; guarded by queue_mu_
  bool stop_ = false;       ///< guarded by queue_mu_
  /// Declared last: it starts once every member above is constructed.
  std::thread dispatcher_;
};

}  // namespace ps3::io

#endif  // PS3_IO_PREFETCH_PIPELINE_H_
