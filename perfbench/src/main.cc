// Serving benchmark: sets up one named workload from a seed, serves
// its query stream from a single closed-loop client for a fixed time,
// checks every answer, and prints every metric by name with its unit.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the same stream untraced and then traced, checks that both give
// bit-identical outcomes, and prints the per-layer metrics of the traced
// run. The last stdout line is the result object; the line before it is a
// "detail" object with diagnostics (outcome hash, host steal share, sizes).
// The exit code is nonzero when any answer was wrong or missing, or a
// determinism or span-reconciliation check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adapter.h"
#include "fold.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Set-up is repeated and its median reported, so a few slow
/// repetitions do not move setup_s.
constexpr int kSetupReps = 5;
/// A query whose future fails is resubmitted, as a waiting caller would,
/// up to this many times; only a query still failing after that counts as
/// failed.
constexpr int kMaxResubmits = 3;
/// Slack allowed when checking that a traced request's parts (queue wait,
/// pick, union of acquires, self) lie inside and add up to its latency.
constexpr double kReconcileToleranceMs = 0.01;
/// Queries timed standalone for the per-layer resident-scan and pick
/// numbers.
constexpr size_t kStandaloneQueries = 64;

struct Workload {
  const char* name;
  EngineConfig config;
};

// Sizes: 200k rows in 400 partitions (32 MB decoded), cache 1/8 of that.
// On a 4-vCPU VM a pass over either stream takes 6-8 s, so a 30 s run
// makes 3-5 passes.
std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  {
    // The paper's serving path: learned picker at fraction 0.1, cold
    // reads with prefetch, working set larger than the cache.
    EngineConfig c;
    c.mode = Mode::kApproximate;
    c.lanes = 2;
    c.prefetch = true;
    c.rtt_us = 1500;
    c.bandwidth_mbps = 1000;
    c.num_queries = 120;
    w.push_back({"approx_cold", c});
  }
  {
    // Full sequential cold scans with retries and backoff, no prefetch.
    // Serial, so fault outcomes are a function of the seed alone.
    EngineConfig c;
    c.mode = Mode::kExact;
    c.lanes = 1;
    c.rtt_us = 200;
    c.fault_rate = 0.01;
    c.num_queries = 36;
    w.push_back({"exact_cold_faults", c});
  }
  return w;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host-wide CPU tick counters from /proc/stat: (steal, total).
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return {0, 0};
  uint64_t total = 0;
  for (uint64_t& x : v) {
    if (!(in >> x)) return {0, 0};
    total += x;
  }
  return {v[7], total};
}

/// One client request: a query submitted until it is answered (or the
/// resubmission limit is reached).
struct Request {
  QueryResult last;
  int submissions = 0;
  double latency_ms = 0.0;
  /// Process CPU time (all threads) while the request was in flight.
  double cpu_ms = 0.0;
  uint64_t cold_loads = 0;
  uint64_t retries = 0;
  bool ok() const { return last.answered && last.correct; }
};

/// One timed phase: whole passes over the query stream until the time is
/// up.
struct Phase {
  std::vector<Request> requests;  ///< every pass, in order
  std::vector<uint64_t> pass_hashes;
  double wall_s = 0.0;
  IoCounters io;
  double steal_frac = 0.0;
};

/// The deterministic outcome of one request, folded into its pass hash:
/// for approximate queries the partitions picked, for exact ones the
/// store work it caused; both include whether and what it answered.
uint64_t FoldOutcome(uint64_t h, const Request& r, Mode mode) {
  h = Fold(h, static_cast<uint64_t>(r.submissions));
  h = Fold(h, r.last.answered ? 1 : 0);
  h = Fold(h, r.last.answer_hash);
  if (mode == Mode::kApproximate) {
    for (uint32_t p : r.last.picked) h = Fold(h, p);
  } else {
    h = Fold(h, r.cold_loads);
    h = Fold(h, r.retries);
  }
  return h;
}

Phase RunPhase(Engine* engine, Tracer* tracer, Mode mode, double seconds,
               uint32_t* next_request) {
  Phase ph;
  const IoCounters io0 = engine->Counters();
  const auto ticks0 = CpuTicks();
  const Clock::time_point start = Clock::now();
  // Whole passes only, at least two so each query has a fastest pass to
  // choose from; another pass starts while at least half of one still
  // fits in the time.
  double pass_s = 0.0;
  do {
    const Clock::time_point pass_start = Clock::now();
    engine->ResetPass();
    uint64_t h = 0;
    for (size_t i = 0; i < engine->num_queries(); ++i) {
      Request r;
      tracer->BeginRequest((*next_request)++);
      const double c0 = CpuSeconds();
      const Clock::time_point t0 = Clock::now();
      do {
        r.last = engine->Run(i);
        ++r.submissions;
        r.cold_loads += r.last.cold_loads;
        r.retries += r.last.retries;
      } while (!r.last.answered && r.submissions <= kMaxResubmits);
      const Clock::time_point t1 = Clock::now();
      r.cpu_ms = 1000.0 * (CpuSeconds() - c0);
      tracer->Record(SpanKind::kRequest, t0, t1);
      r.latency_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      h = FoldOutcome(h, r, mode);
      ph.requests.push_back(std::move(r));
    }
    ph.pass_hashes.push_back(h);
    pass_s = std::chrono::duration<double>(Clock::now() - pass_start).count();
  } while (ph.pass_hashes.size() < 2 ||
           std::chrono::duration<double>(Clock::now() - start).count() +
                   pass_s / 2 <
               seconds);
  ph.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  ph.io = engine->Counters() - io0;
  const auto ticks1 = CpuTicks();
  const uint64_t dt = ticks1.second - ticks0.second;
  ph.steal_frac = dt == 0 ? 0.0
                          : static_cast<double>(ticks1.first - ticks0.first) /
                                static_cast<double>(dt);
  return ph;
}

/// Each answered query's fastest pass: every pass replays the same
/// stream from the same state, so the passes differ only in what the host
/// did meanwhile, and contention only ever adds time.
struct BestOfPasses {
  /// Per answered query: the answering submission's latency, the whole
  /// request including resubmissions, and the process CPU time it used.
  std::vector<double> latency_ms;
  std::vector<double> request_ms;
  std::vector<double> cpu_ms;
};

BestOfPasses Best(const Phase& ph, size_t queries_per_pass) {
  std::vector<double> lat(queries_per_pass, INFINITY);
  std::vector<double> req(queries_per_pass, INFINITY);
  std::vector<double> cpu(queries_per_pass, INFINITY);
  for (size_t k = 0; k < ph.requests.size(); ++k) {
    const Request& r = ph.requests[k];
    if (!r.last.answered) continue;
    const size_t i = k % queries_per_pass;
    lat[i] = std::min(lat[i], r.last.latency_ms);
    req[i] = std::min(req[i], r.latency_ms);
    cpu[i] = std::min(cpu[i], r.cpu_ms);
  }
  BestOfPasses b;
  for (size_t i = 0; i < queries_per_pass; ++i) {
    if (std::isfinite(lat[i])) {
      b.latency_ms.push_back(lat[i]);
      b.request_ms.push_back(req[i]);
      b.cpu_ms.push_back(cpu[i]);
    }
  }
  return b;
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Per-request breakdown of a traced phase from its spans.
struct Breakdown {
  std::vector<double> queue_wait_ms;
  std::vector<double> self_ms;
  std::vector<double> acquire_ms;
  double acquire_busy_ms = 0.0;
  /// Largest amount by which a request's parts failed to lie inside it
  /// or to add up to it.
  double worst_mismatch_ms = 0.0;
};

Breakdown Analyze(const std::vector<Span>& spans) {
  struct Group {
    const Span* request = nullptr;
    std::vector<const Span*> picks;
    std::vector<const Span*> acquires;
  };
  std::map<uint32_t, Group> groups;
  for (const Span& s : spans) {
    Group& g = groups[s.request];
    if (s.kind == SpanKind::kRequest) g.request = &s;
    if (s.kind == SpanKind::kPick) g.picks.push_back(&s);
    if (s.kind == SpanKind::kAcquire) g.acquires.push_back(&s);
  }
  auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  Breakdown b;
  for (auto& [id, g] : groups) {
    if (g.request == nullptr) {
      b.worst_mismatch_ms = INFINITY;  // a child span outside any request
      continue;
    }
    const Span& req = *g.request;
    Clock::time_point first = req.end;
    double outside = 0.0;
    auto inside = [&](const Span* s) {
      first = std::min(first, s->start);
      outside = std::max({outside, ms(req.start - s->start),
                          ms(s->end - req.end)});
    };
    for (const Span* s : g.picks) inside(s);
    for (const Span* s : g.acquires) inside(s);
    // Union of the acquire intervals (lanes overlap), and the picks'
    // total; picks run on the scheduler thread before the scan starts.
    std::sort(g.acquires.begin(), g.acquires.end(),
              [](const Span* a, const Span* c) { return a->start < c->start; });
    double acquire_union = 0.0;
    Clock::time_point cur_start{}, cur_end{};
    bool open = false;
    for (const Span* s : g.acquires) {
      b.acquire_ms.push_back(s->ms());
      b.acquire_busy_ms += s->ms();
      if (open && s->start <= cur_end) {
        cur_end = std::max(cur_end, s->end);
        continue;
      }
      if (open) acquire_union += ms(cur_end - cur_start);
      cur_start = s->start;
      cur_end = s->end;
      open = true;
    }
    if (open) acquire_union += ms(cur_end - cur_start);
    double pick = 0.0;
    for (const Span* p : g.picks) {
      pick += p->ms();
      for (const Span* a : g.acquires) {
        // Overlap between a pick and an acquire would be counted twice.
        const double overlap =
            ms(std::min(p->end, a->end) - std::max(p->start, a->start));
        outside = std::max(outside, overlap);
      }
    }
    const double latency = req.ms();
    const double queue_wait = ms(first - req.start);
    const double self = latency - queue_wait - pick - acquire_union;
    b.queue_wait_ms.push_back(queue_wait);
    b.self_ms.push_back(self);
    b.worst_mismatch_ms =
        std::max({b.worst_mismatch_ms, outside, -self});
  }
  return b;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << Json(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}";
  return out.str();
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

uint64_t ParseUnsigned(const char* flag, const std::string& v) {
  if (v.empty() || v.size() > 18 ||
      v.find_first_not_of("0123456789") != std::string::npos) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return std::strtoull(v.c_str(), nullptr, 10);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0) {
      Usage("arguments come in --flag value pairs");
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.count(required)) {
      Usage((std::string("missing --") + required).c_str());
    }
  }
  const uint64_t seed = ParseUnsigned("--seed", args["seed"]);
  const uint64_t seconds = ParseUnsigned("--seconds", args["seconds"]);
  const uint64_t trace = ParseUnsigned("--trace", args["trace"]);
  if (seconds < 1 || seconds > 60) Usage("--seconds must be in [1, 60]");
  if (trace > 1) Usage("--trace must be 0 or 1");
  const std::string out_dir = args.count("out-dir") ? args["out-dir"] : ".";

  const Workload* workload = nullptr;
  const std::vector<Workload> all = Workloads();
  for (const Workload& w : all) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown --workload");

  EngineConfig config = workload->config;
  config.seed = seed;
  config.spill_dir = out_dir + "/spill-" + workload->name + "-" +
                     std::to_string(static_cast<long>(getpid()));
  std::filesystem::create_directories(out_dir);

  // Removes the spilled table on every exit path; declared before the
  // engine so the store's files are closed first.
  struct SpillDirGuard {
    std::string dir;
    ~SpillDirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } spill_guard{config.spill_dir};
  Tracer tracer;
  std::unique_ptr<Engine> engine;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    engine = std::make_unique<Engine>(config, &tracer);
    setups.push_back(engine->Setup());
  }
  auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  const Clock::time_point refs_start = Clock::now();
  engine->PrepareReferences();
  const double refs_s =
      std::chrono::duration<double>(Clock::now() - refs_start).count();
  const Footprint fp = engine->footprint();
  const size_t queries_per_pass = engine->num_queries();

  // The traced run splits its time between the untraced and the traced
  // phase, so both kinds of run take about --seconds.
  uint32_t next_request = 0;
  const double secs = static_cast<double>(seconds) / (trace == 1 ? 2 : 1);
  const Phase plain =
      RunPhase(engine.get(), &tracer, config.mode, secs, &next_request);
  std::unique_ptr<Phase> traced;
  std::vector<double> resident_ms, pick_ms, cluster_ms;
  if (trace == 1) {
    tracer.set_enabled(true);
    traced = std::make_unique<Phase>(
        RunPhase(engine.get(), &tracer, config.mode, secs, &next_request));
    tracer.set_enabled(false);
    const size_t n = std::min(kStandaloneQueries, engine->num_queries());
    for (size_t i = 0; i < n; ++i) {
      resident_ms.push_back(engine->ResidentScanMs(i));
    }
    if (config.mode == Mode::kApproximate) {
      for (const Request& r : traced->requests) {
        pick_ms.push_back(r.last.pick_ms);
        cluster_ms.push_back(r.last.cluster_ms);
      }
    } else {
      // The exact path does not pick; time the picker on the same
      // queries so the core layer is measured on every workload.
      for (size_t i = 0; i < n; ++i) {
        double c = 0.0;
        pick_ms.push_back(engine->PickMs(i, &c));
        cluster_ms.push_back(c);
      }
    }
  }
  const double peak_rss_mb = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }();

  // ------------------------------------------------------ correctness
  std::vector<std::string> problems;
  size_t attempted = 0, failed = 0;
  for (const Phase* ph : std::vector<const Phase*>{&plain, traced.get()}) {
    if (ph == nullptr) continue;
    for (const Request& r : ph->requests) {
      ++attempted;
      if (!r.ok()) {
        ++failed;
        if (problems.size() < 8) {
          problems.push_back(r.last.answered ? "answer differs from reference"
                                             : "unanswered: " + r.last.error);
        }
      }
    }
    for (uint64_t h : ph->pass_hashes) {
      if (h != plain.pass_hashes.front()) {
        problems.push_back("outcome hash differs between passes");
        break;
      }
    }
  }
  Breakdown bd;
  if (traced) {
    bd = Analyze(tracer.spans());
    if (!(bd.worst_mismatch_ms <= kReconcileToleranceMs)) {
      problems.push_back("traced spans do not add up to request latency (" +
                         Json(bd.worst_mismatch_ms) + " ms off)");
    }
    const std::string csv = out_dir + "/trace-" + workload->name + ".csv";
    if (!tracer.WriteCsv(csv)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", csv.c_str());
    }
  }
  const bool correct = problems.empty();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }

  // --------------------------------------------------------- metrics
  const BestOfPasses best_plain = Best(plain, queries_per_pass);
  std::vector<Metric> metrics;
  if (trace == 0) {
    const double nq = static_cast<double>(plain.requests.size());
    size_t answered = 0, first_try = 0;
    double rel = 0.0, parts = 0.0, bytes = 0.0;
    for (const Request& r : plain.requests) {
      if (r.last.answered) {
        ++answered;
        rel += r.last.rel_error;
        parts += static_cast<double>(r.last.partitions_read);
        bytes += static_cast<double>(r.last.bytes_read);
      }
      if (r.last.answered && r.submissions == 1) ++first_try;
    }
    const double na = static_cast<double>(std::max<size_t>(answered, 1));
    metrics = {
        {"setup_s", setup_median(&SetupTimes::total_s), "s"},
        {"latency_ms.p50", Percentile(best_plain.latency_ms, 0.50), "ms"},
        {"queries_per_s", 1000.0 / Mean(best_plain.request_ms), "1/s"},
        {"answered_first_try_frac", static_cast<double>(first_try) / nq,
         "fraction"},
        {"answer_accuracy", 1.0 - rel / na, "fraction"},
        {"partitions_read_frac",
         parts / na / static_cast<double>(fp.partitions), "fraction"},
        {"bytes_read_per_query", bytes / na, "bytes"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"stats_kb_per_partition", fp.stats_kb_per_partition, "KB"},
        {"disk_bytes_per_row",
         static_cast<double>(fp.disk_bytes) / static_cast<double>(fp.rows),
         "bytes"},
    };
  } else {
    const Phase& t = *traced;
    const double nt = static_cast<double>(t.requests.size());
    const IoCounters& io = t.io;
    const double plain_p50 = Percentile(best_plain.latency_ms, 0.5);
    const double traced_p50 =
        Percentile(Best(t, queries_per_pass).latency_ms, 0.5);
    double rel = 0.0;
    size_t answered = 0;
    for (const Request& r : t.requests) {
      if (r.last.answered) {
        ++answered;
        rel += r.last.rel_error;
      }
    }
    const uint64_t lookups = io.cache_hits + io.cache_misses;
    metrics = {
        {"runtime.queue_wait_ms.p50", Median(bd.queue_wait_ms), "ms"},
        {"core.pick_ms.p50", Median(pick_ms), "ms"},
        {"core.cluster_ms.p50", Median(cluster_ms), "ms"},
        {"core.train_s", setup_median(&SetupTimes::train_s), "s"},
        {"stats.build_s", setup_median(&SetupTimes::stats_s), "s"},
        {"io.acquire_ms.p50", Percentile(bd.acquire_ms, 0.50), "ms"},
        {"io.acquire_ms.p95", Percentile(bd.acquire_ms, 0.95), "ms"},
        {"io.acquire_busy_ms_per_query", bd.acquire_busy_ms / nt, "ms"},
        {"io.cache_hit_rate",
         lookups ? static_cast<double>(io.cache_hits) /
                       static_cast<double>(lookups)
                 : 0.0,
         "fraction"},
        {"io.cache_evictions_per_query",
         static_cast<double>(io.cache_evictions) / nt, "count"},
        {"io.prefetch_staged_per_query",
         static_cast<double>(io.prefetch_staged) / nt, "count"},
        {"io.prefetch_useful_frac",
         io.prefetch_staged ? static_cast<double>(io.prefetch_hits) /
                                  static_cast<double>(io.prefetch_staged)
                            : 0.0,
         "fraction"},
        {"io.cold_loads_per_query", static_cast<double>(io.cold_loads) / nt,
         "count"},
        {"io.bytes_loaded_per_query",
         static_cast<double>(io.bytes_loaded) / nt, "bytes"},
        {"io.retries_per_query", static_cast<double>(io.retries) / nt,
         "count"},
        {"io.transient_errors_per_query",
         static_cast<double>(io.transient_errors) / nt, "count"},
        {"io.load_errors_per_query",
         static_cast<double>(io.load_errors) / nt, "count"},
        {"io.spill_s", setup_median(&SetupTimes::spill_s), "s"},
        {"query.self_ms.p50", Median(bd.self_ms), "ms"},
        {"query.resident_scan_ms.p50", Median(resident_ms), "ms"},
        {"query.avg_rel_error",
         rel / static_cast<double>(std::max<size_t>(answered, 1)),
         "fraction"},
        {"trace.overhead_frac", traced_p50 / plain_p50 - 1.0, "fraction"},
        {"host.steal_frac",
         (plain.steal_frac * plain.wall_s + t.steal_frac * t.wall_s) /
             (plain.wall_s + t.wall_s),
         "fraction"},
    };
  }

  // ---------------------------------------------------------- output
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %" PRIu64
      ", \"queries_per_pass\": %zu, \"passes\": %zu, "
      "\"outcome_hash\": \"%016" PRIx64
      "\", \"host.steal_frac\": %s, \"rows\": %zu, \"partitions\": %zu, "
      "\"table_decoded_bytes\": %" PRIu64 ", \"cache_budget_bytes\": %" PRIu64
      ", \"setup_s\": {\"data\": %s, \"stats\": %s, \"train\": %s, "
      "\"spill\": %s, \"open\": %s}, "
      "\"references_s\": %s, \"latency_ms.p95\": %s, "
      "\"cpu_ms_per_query\": %s, "
      "\"reconcile_tolerance_ms\": %s, \"worst_reconcile_ms\": %s}}\n",
      workload->name, seed, trace, queries_per_pass, plain.pass_hashes.size(),
      plain.pass_hashes.front(),
      Json(plain.steal_frac).c_str(), fp.rows, fp.partitions,
      fp.table_decoded_bytes, fp.cache_budget_bytes,
      Json(setup_median(&SetupTimes::data_s)).c_str(),
      Json(setup_median(&SetupTimes::stats_s)).c_str(),
      Json(setup_median(&SetupTimes::train_s)).c_str(),
      Json(setup_median(&SetupTimes::spill_s)).c_str(),
      Json(setup_median(&SetupTimes::open_s)).c_str(),
      Json(refs_s).c_str(),
      Json(Percentile(best_plain.latency_ms, 0.95)).c_str(),
      Json(Mean(best_plain.cpu_ms)).c_str(),
      Json(kReconcileToleranceMs).c_str(),
      Json(traced ? bd.worst_mismatch_ms : 0.0).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
