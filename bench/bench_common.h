// Shared configuration for the reproduction benches. Every bench binary
// regenerates one table or figure of the paper at simulator scale; set
// PS3_FAST=1 (or PS3_ROWS / PS3_PARTS / PS3_TRAINQ / PS3_TESTQ) to shrink.
#ifndef PS3_BENCH_BENCH_COMMON_H_
#define PS3_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/report.h"
#include "io/partition_file.h"

namespace ps3::bench {

/// Strict parse of one unsigned decimal item from an env value. Anything
/// that isn't a plain in-range number — sign, empty item, trailing junk,
/// overflow, or a value below `min_value` — aborts with an error naming
/// the variable: a typo in a swept dimension must never silently fall
/// back to defaults, or the bench JSON trajectory gets compared against
/// mislabeled coverage.
inline size_t ParseEnvSizeItem(const char* name, const std::string& item,
                               size_t min_value) {
  auto die = [&](const char* why) {
    std::fprintf(stderr, "%s: %s in \"%s\"\n", name, why, item.c_str());
    std::abort();
  };
  if (item.empty()) die("empty value");
  for (char c : item) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      die("malformed value (digits only)");
    }
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long x = std::strtoull(item.c_str(), &end, 10);
  if (errno == ERANGE || x > static_cast<unsigned long long>(SIZE_MAX)) {
    die("value out of range");
  }
  if (x < min_value) {
    die(min_value == 1 ? "value must be >= 1" : "value below minimum");
  }
  return static_cast<size_t>(x);
}

/// Parses a comma-separated list env var ("1,4,8") into sizes; returns
/// `fallback` only when the variable is unset or empty. Shared by the
/// perf benches so CI runners and laptops can pin comparable JSON
/// dimensions. Malformed input (including zero entries and stray commas)
/// aborts with a clear error instead of silently shrinking the sweep.
inline std::vector<size_t> EnvSizeList(const char* name,
                                       std::vector<size_t> fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<size_t> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      out.push_back(ParseEnvSizeItem(name, item, /*min_value=*/1));
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

/// Strict scalar env size ("PS3_ROWS=50000"); `fallback` only when unset
/// or empty, abort on malformed input.
inline size_t EnvSizeScalar(const char* name, size_t fallback,
                            size_t min_value = 1) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return ParseEnvSizeItem(name, v, min_value);
}

/// Worker-lane counts exercised by the throughput benches (PS3_THREADS).
inline std::vector<size_t> BenchThreadCounts() {
  return EnvSizeList("PS3_THREADS", {1, 4, 8});
}

/// Shard counts exercised by the sharded fan-out benches (PS3_SHARDS).
inline std::vector<size_t> BenchShardCounts() {
  return EnvSizeList("PS3_SHARDS", {1, 4, 8});
}

/// Concurrent query-stream counts exercised by the scheduler benches
/// (PS3_STREAMS). Each stream is a closed-loop submitter pushing its
/// share of the query set through a QueryScheduler on the shared pool.
inline std::vector<size_t> BenchStreamCounts() {
  return EnvSizeList("PS3_STREAMS", {1, 2, 4});
}

/// Stream counts for the multi-tenant class bench (PS3_CLASSES). Each
/// count n is one closed-loop *interactive* stream (with think time)
/// racing n-1 closed-loop *batch* streams through one QueryScheduler;
/// counts below 2 are clamped to 2 (the smallest mixed-class shape).
inline std::vector<size_t> BenchClassStreamCounts() {
  return EnvSizeList("PS3_CLASSES", {9, 16, 64});
}

/// Queries the interactive stream completes per class-bench mode
/// (PS3_CLASSQ) — the latency sample count behind the p50/p99.
inline size_t BenchClassQuota() { return EnvSizeScalar("PS3_CLASSQ", 32); }

/// Interactive think time in microseconds between queries
/// (PS3_CLASS_THINK_US). An interactive tenant is bursty by definition —
/// think time is what distinguishes it from one more batch stream, and
/// its duty cycle bounds how much batch throughput the class weighting
/// may cost.
inline size_t BenchClassThinkUs() {
  return EnvSizeScalar("PS3_CLASS_THINK_US", 30000, /*min_value=*/0);
}

/// Worker lanes per query in the class bench (PS3_CLASS_THREADS).
inline size_t BenchClassThreads() {
  return EnvSizeScalar("PS3_CLASS_THREADS", 16);
}

/// Spill-time segment encodings exercised by the out-of-core benches
/// (PS3_ENCODING, comma-separated "raw" / "bitpack" / "for_delta" /
/// "auto"). Like every swept dimension, unknown names abort instead of
/// silently shrinking the sweep.
inline std::vector<io::EncodingMode> BenchEncodingModes() {
  const char* v = std::getenv("PS3_ENCODING");
  if (v == nullptr || *v == '\0') {
    return {io::EncodingMode::kRaw, io::EncodingMode::kBitpack,
            io::EncodingMode::kForDelta, io::EncodingMode::kAuto};
  }
  std::vector<io::EncodingMode> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      auto mode = io::ParseEncodingMode(item);
      if (!mode.ok()) {
        std::fprintf(stderr, "PS3_ENCODING: %s\n",
                     mode.status().message().c_str());
        std::abort();
      }
      out.push_back(*mode);
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

/// Strict parse of one sampling fraction: a plain decimal in (0, 1] —
/// digits and at most one '.', nothing else. Signs, exponents, inf/nan
/// spellings, empty items, 0, and values above 1 all abort: a malformed
/// fraction must never silently run a different sampling sweep (and a
/// NaN fraction can never reach the picker budget math).
inline double ParseEnvFractionItem(const char* name, const std::string& item,
                                   bool allow_zero = false) {
  auto die = [&](const char* why) {
    std::fprintf(stderr, "%s: %s in \"%s\"\n", name, why, item.c_str());
    std::abort();
  };
  if (item.empty()) die("empty value");
  bool saw_digit = false;
  bool saw_dot = false;
  for (char c : item) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      saw_digit = true;
    } else if (c == '.') {
      if (saw_dot) die("malformed value (multiple '.')");
      saw_dot = true;
    } else {
      die("malformed value (digits and one '.' only)");
    }
  }
  if (!saw_digit) die("malformed value (no digits)");
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(item.c_str(), &end);
  if (errno == ERANGE || end != item.c_str() + item.size()) {
    die("value out of range");
  }
  // The grammar above already excludes nan/inf/negatives; this is the
  // range contract: fractions are a share of the partition count (rates,
  // which sweep "no faults" as a legitimate point, also admit 0).
  if (!allow_zero && !(x > 0.0)) die("value must be > 0");
  if (x > 1.0) die("value must be <= 1");
  return x;
}

/// Comma-separated sampling fractions ("0.05,0.1,0.25"); `fallback` only
/// when unset or empty, abort on anything malformed. `allow_zero` admits
/// 0 entries (probability-rate sweeps); fractions reject them.
inline std::vector<double> EnvFractionList(const char* name,
                                           std::vector<double> fallback,
                                           bool allow_zero = false) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<double> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      out.push_back(ParseEnvFractionItem(name, item, allow_zero));
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

/// Sampling fractions exercised by the approximate-serving bench
/// (PS3_FRACTIONS). Each fraction caps the picker budget at
/// ceil(fraction * partitions).
inline std::vector<double> BenchPickerFractions() {
  return EnvFractionList("PS3_FRACTIONS", {0.05, 0.1, 0.25});
}

/// Pickers exercised by the approximate-serving bench (PS3_PICKERS,
/// comma-separated from {"exact", "random", "ps3"}). Unknown names abort,
/// like every swept dimension.
inline std::vector<std::string> BenchPickerModes() {
  const char* v = std::getenv("PS3_PICKERS");
  if (v == nullptr || *v == '\0') return {"exact", "random", "ps3"};
  std::vector<std::string> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (item != "exact" && item != "random" && item != "ps3") {
        std::fprintf(stderr,
                     "PS3_PICKERS: unknown picker \"%s\" "
                     "(expected exact, random, or ps3)\n",
                     item.c_str());
        std::abort();
      }
      out.push_back(item);
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

/// Injected fault rates swept by the fault-tolerance bench
/// (PS3_FAULT_RATE, comma-separated, 0 legal — the fault-free baseline
/// is a swept point). Each rate drives both the transient-error and the
/// latency-spike probability of the store's FaultInjector.
inline std::vector<double> BenchFaultRates() {
  return EnvFractionList("PS3_FAULT_RATE", {0.0, 0.01, 0.05},
                         /*allow_zero=*/true);
}

/// Fault-plan seed (PS3_FAULT_SEED). Same seed + same rates => the
/// identical injected fault sequence, so two bench runs are comparable
/// failure-for-failure.
inline uint64_t BenchFaultSeed() {
  return static_cast<uint64_t>(
      EnvSizeScalar("PS3_FAULT_SEED", 42, /*min_value=*/0));
}

/// Retry attempt counts swept by the fault-tolerance bench (PS3_RETRY,
/// comma-separated total attempts per load step; 1 = retries off).
inline std::vector<size_t> BenchRetryAttempts() {
  return EnvSizeList("PS3_RETRY", {1, 3});
}

/// Default bench scale: 100k rows over 400 partitions (the paper's 1000
/// partitions scaled to this simulator), 96 training / 40 test queries.
inline eval::ExperimentConfig BenchConfig(const std::string& dataset,
                                          size_t rows = 100000,
                                          size_t partitions = 400) {
  eval::ExperimentConfig cfg;
  cfg.dataset = dataset;
  cfg.rows = rows;
  cfg.partitions = partitions;
  cfg.train_queries = 96;
  cfg.test_queries = 40;
  cfg.ps3.feature_selection.restarts = 1;
  cfg.ps3.feature_selection.eval_queries = 5;
  cfg.lss.eval_queries = 5;
  cfg.ApplyEnvOverrides();
  return cfg;
}

/// Budget grid used by the error-curve figures.
inline std::vector<double> BenchBudgets() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6};
}

/// Runs per stochastic method (the paper averages 10; scaled down).
inline constexpr int kRuns = 3;

}  // namespace ps3::bench

#endif  // PS3_BENCH_BENCH_COMMON_H_
