// The benchmark's only seam into the PS3 library.
//
// Every call into a program API — data generation, statistics, training,
// spill/open, the Submit / SubmitApproximate serving calls, the timing
// ColdShardedSource subclass and the timing picker wrapper — lives in
// adapter.cc. When the library's submission surface changes, only that
// file changes. This header exposes no library types, so main.cc is
// plain C++.
#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Fixed inputs shared by every workload: TPC-H* rows sorted by the
/// dataset's default layout and cut into contiguous partitions.
inline constexpr size_t kRows = 200000;
inline constexpr size_t kPartitions = 400;

/// Picker budget of approximate queries, as a share of the partitions.
inline constexpr double kSamplingFraction = 0.1;
/// Cache budget as a share of the table's decoded bytes: the working set
/// of a pass is larger than the cache.
inline constexpr double kCacheShare = 0.125;

enum class Mode { kApproximate, kExact };

/// One workload's serving configuration. Everything the run varies by
/// seed (queries, picker seeds, fault plan) derives from `seed`.
struct EngineConfig {
  Mode mode = Mode::kExact;
  /// Worker lanes per query (ExecOptions::num_threads).
  int lanes = 1;
  bool prefetch = false;
  /// Simulated store round trip per read pass and link bandwidth
  /// (0 = no bandwidth term).
  size_t rtt_us = 0;
  size_t bandwidth_mbps = 0;
  /// Seeded fault plan: this rate of transient read errors and,
  /// independently, of latency spikes (0 = no injector).
  double fault_rate = 0.0;
  size_t num_queries = 100;
  uint64_t seed = 1;
  /// Directory the table is spilled to (created, then reused).
  std::string spill_dir;
};

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
  double data_s = 0.0;
  double stats_s = 0.0;
  double train_s = 0.0;
  double spill_s = 0.0;
  double open_s = 0.0;
  double total_s = 0.0;
};

/// Sizes that do not depend on the query stream.
struct Footprint {
  size_t rows = 0;
  size_t partitions = 0;
  uint64_t table_decoded_bytes = 0;
  uint64_t disk_bytes = 0;
  uint64_t cache_budget_bytes = 0;
  double stats_kb_per_partition = 0.0;
};

/// Cumulative store, cache and prefetch counters; main.cc takes deltas.
struct IoCounters {
  uint64_t cold_loads = 0;
  uint64_t bytes_loaded = 0;
  uint64_t retries = 0;
  uint64_t transient_errors = 0;
  uint64_t load_errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t prefetch_staged = 0;
  /// Demand acquires that found resident a segment the prefetch pipeline
  /// staged for them (counted only while tracing).
  uint64_t prefetch_hits = 0;

  IoCounters operator-(const IoCounters& o) const;
};

struct QueryResult {
  bool answered = false;
  /// Answered and bit-identical to the reference: the resident kScalar
  /// exact answer, or for approximate queries the same pick served from
  /// the resident table.
  bool correct = false;
  std::string error;
  double latency_ms = 0.0;
  /// Hash of the answer's bits (value and error surface).
  uint64_t answer_hash = 0;
  /// Mean relative error against the resident exact answer.
  double rel_error = 0.0;
  /// Partitions the scan acquired, and the encoded bytes a cold read of
  /// the acquired (partition, column) segments moves.
  size_t partitions_read = 0;
  uint64_t bytes_read = 0;
  /// Approximate queries: partitions the picker chose, and its telemetry.
  std::vector<uint32_t> picked;
  double pick_ms = 0.0;
  double cluster_ms = 0.0;
  /// Store counters moved by this query (exact only while the client is
  /// the store's only user, i.e. without prefetch).
  uint64_t cold_loads = 0;
  uint64_t retries = 0;
};

class Engine {
 public:
  Engine(EngineConfig config, Tracer* tracer);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Generates the table, builds statistics, trains the PS3 model,
  /// spills and opens the store.
  SetupTimes Setup();
  /// Generates the query stream and computes every reference answer on
  /// the resident table. Not part of the timed set-up.
  void PrepareReferences();

  size_t num_queries() const;
  /// Submits query `i` once, waits for its future, and checks the answer.
  QueryResult Run(size_t i);
  /// Returns the engine to the same starting state before each pass over
  /// the query stream: prefetch drained, cache emptied, fault attempt
  /// counters rewound.
  void ResetPass();

  IoCounters Counters() const;
  Footprint footprint() const;

  /// Standalone timings of single layers, for the traced run: the
  /// vectorized scan of query `i` over the resident table, and the PS3
  /// picker's Pick for it (clustering share in `cluster_ms`).
  double ResidentScanMs(size_t i) const;
  double PickMs(size_t i, double* cluster_ms) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
