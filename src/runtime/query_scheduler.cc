#include "runtime/query_scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/hash.h"
#include "common/random.h"
#include "core/picker.h"
#include "query/compiler.h"
#include "storage/picked_source.h"

namespace ps3::runtime {

namespace {

size_t ResolveDrivers(int num_drivers) {
  if (num_drivers > 0) return static_cast<size_t>(num_drivers);
  unsigned hw = std::thread::hardware_concurrency();
  return std::min<size_t>(4, hw == 0 ? 1 : static_cast<size_t>(hw));
}

/// The structured "partitions are gone" Status: names every lost
/// partition so the consumer can log, alert, or re-plan around exactly
/// that set instead of guessing from a generic IO error.
Status LostStatus(const std::vector<size_t>& lost) {
  std::string msg = std::to_string(lost.size()) +
                    " partition(s) permanently lost:";
  for (size_t p : lost) {
    msg += ' ';
    msg += std::to_string(p);
  }
  msg += " (resubmit via SubmitDegradable with DegradedMode::kApproximate"
         " for a bounded-error answer over the reachable set)";
  return Status::Unavailable(std::move(msg));
}

/// Throws the structured failure if the source reports lost partitions.
/// The exact path's guard: an "exact" answer over a partial table is
/// never served silently.
void ThrowIfLost(const storage::PartitionSource& source) {
  const std::vector<size_t> lost = source.UnreachablePartitions();
  if (!lost.empty()) throw QueryFailed(LostStatus(lost));
}

/// The shared tail of SubmitApproximate and SubmitDegradable: scans the
/// weighted subset `sel` (canonical order, ascending partitions) through
/// a storage::PickedSource view of `source`, combines it with its error
/// surface, and fills the answer's accounting.
ApproxAnswer ScanWeighted(
    const query::Query& q, const storage::PartitionSource& source,
    const std::vector<query::WeightedPartition>& sel,
    const query::ExecOptions& exec) {
  std::vector<size_t> picked;
  picked.reserve(sel.size());
  for (const auto& wp : sel) picked.push_back(wp.partition);

  const query::CompiledQuery compiled = query::CompileQuery(q);
  const storage::PickedSource view(source, picked);
  std::vector<query::PartitionAnswer> partials =
      query::EvaluateAllPartitions(q, compiled, view, exec);
  query::ApproxCombined combined =
      query::CombineWeightedWithError(q, partials, sel);

  ApproxAnswer out;
  out.value = std::move(combined.value);
  out.error_estimate = std::move(combined.error);
  out.partitions_scanned = picked.size();
  out.partitions_total = source.num_partitions();
  out.bytes_moved =
      source.ColdScanBytes(picked, query::ReferencedColumns(compiled));
  return out;
}

}  // namespace

QueryScheduler::QueryScheduler() : QueryScheduler(Options()) {}

QueryScheduler::QueryScheduler(Options options)
    : pool_(options.pool != nullptr ? options.pool
                                    : &WorkerPool::Shared()) {
  const size_t n = ResolveDrivers(options.num_drivers);
  drivers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    drivers_.emplace_back([this] { DriverMain(); });
  }
}

QueryScheduler::~QueryScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& d : drivers_) d.join();
}

size_t QueryScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queues_[0].size() + queues_[1].size() + executing_;
}

void QueryScheduler::Enqueue(std::function<void()> task,
                             QueryClass query_class) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[query_class == QueryClass::kInteractive ? 1 : 0].push_back(
        std::move(task));
  }
  cv_.notify_one();
}

void QueryScheduler::DriverMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_ || !queues_[0].empty() || !queues_[1].empty();
      });
      // Drain-on-destruction: exit only once both queues are empty, so
      // every admitted future becomes ready.
      // Interactive first: a latency-class query never waits behind the
      // batch backlog for a driver.
      std::deque<std::function<void()>>& q =
          !queues_[1].empty() ? queues_[1] : queues_[0];
      if (q.empty()) return;
      task = std::move(q.front());
      q.pop_front();
      ++executing_;
    }
    // packaged_task catches the body's exception and parks it in the
    // future, so a throwing query can't take the driver down.
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
    }
  }
}

QueryScheduler::Admission QueryScheduler::Admit(const SubmitOptions& submit,
                                                query::ExecOptions exec) const {
  Admission a;
  a.token = submit.cancel;
  if (a.token == nullptr && submit.deadline.count() != 0) {
    a.token = std::make_shared<CancelToken>();
  }
  if (a.token != nullptr && submit.deadline.count() != 0) {
    // Armed now — at admission — so time spent queued behind other tasks
    // counts against the deadline, which is what a latency SLO means.
    a.token->SetDeadline(std::chrono::steady_clock::now() + submit.deadline);
  }
  exec.pool = pool_;
  exec.cancel = a.token.get();
  a.opts = std::move(exec);
  return a;
}

std::future<query::QueryAnswer> QueryScheduler::Submit(
    query::Query query, const storage::PartitionSource& source,
    query::ExecOptions exec, SubmitOptions submit) {
  Admission a = Admit(submit, std::move(exec));
  const QueryClass cls = a.opts.query_class;
  return Defer(
      [q = std::move(query), &source, a = std::move(a)] {
        a.ThrowIfDead();
        // An exact future cannot carry a degraded answer: lost
        // partitions fail fast with the structured Status *before* any
        // byte moves, naming the set to re-plan around.
        ThrowIfLost(source);
        return query::ExactAnswer(
            q, query::EvaluateAllPartitions(q, source, a.opts));
      },
      cls);
}

std::future<ApproxAnswer> QueryScheduler::SubmitApproximate(
    query::Query query, const storage::PartitionSource& source,
    const core::PartitionPicker& picker, ApproxOptions approx,
    query::ExecOptions exec, SubmitOptions submit) {
  Admission a = Admit(submit, std::move(exec));
  const QueryClass cls = a.opts.query_class;
  return Defer(
      [q = std::move(query), &source, &picker, approx, a = std::move(a)] {
        a.ThrowIfDead();
        const double frac = approx.sampling_fraction;
        if (!(frac > 0.0) || frac > 1.0) {  // !(> 0) also rejects NaN
          throw std::invalid_argument(
              "SubmitApproximate: sampling_fraction must be in (0, 1]");
        }
        const size_t n = source.num_partitions();
        size_t budget =
            static_cast<size_t>(std::ceil(frac * static_cast<double>(n)));
        budget = std::max<size_t>(1, std::min(budget, n));
        const std::vector<size_t> lost = source.UnreachablePartitions();
        auto overlaps_lost = [&lost](const core::Selection& s) {
          for (const auto& wp : s.parts) {
            if (std::binary_search(lost.begin(), lost.end(), wp.partition)) {
              return true;
            }
          }
          return false;
        };
        core::Selection sel;
        {
          RandomEngine rng(approx.seed);
          sel = picker.Pick(q, budget, &rng, nullptr);
        }
        if (!lost.empty() && overlaps_lost(sel)) {
          // Re-pick around the lost set at *unchanged* budget: rounds
          // with seeds derived from the query seed, so the retry
          // sequence is deterministic and the first lost-free selection
          // wins. Deterministic pickers (and unlucky stochastic ones)
          // may never produce a lost-free pick — then fall back to
          // dropping the lost choices and rescaling the survivors'
          // weights by picked/surviving, which for a uniform all-weight
          // pick reduces to the HT weight n/|reachable ∩ picked|.
          constexpr int kRepickRounds = 8;
          bool found = false;
          for (int round = 1; round <= kRepickRounds && !found; ++round) {
            RandomEngine rng(approx.seed ^
                             Mix64(static_cast<uint64_t>(round)));
            core::Selection cand = picker.Pick(q, budget, &rng, nullptr);
            if (!overlaps_lost(cand)) {
              sel = std::move(cand);
              found = true;
            }
          }
          if (!found) {
            const size_t picked_count = sel.parts.size();
            core::Selection surviving;
            for (const auto& wp : sel.parts) {
              if (!std::binary_search(lost.begin(), lost.end(),
                                      wp.partition)) {
                surviving.parts.push_back(wp);
              }
            }
            if (surviving.parts.empty()) throw QueryFailed(LostStatus(lost));
            const double rescale =
                static_cast<double>(picked_count) /
                static_cast<double>(surviving.parts.size());
            for (auto& wp : surviving.parts) wp.weight *= rescale;
            sel = std::move(surviving);
          }
        }
        // Canonical combine order (ascending global partition index) pins
        // the FP merge order, so the answer's bit pattern is independent
        // of the order the picker emitted its choices in — and a full
        // uniform selection reproduces the exact answer bit for bit.
        query::CanonicalizeSelection(&sel.parts);
        return ScanWeighted(q, source, sel.parts, a.opts);
      },
      cls);
}

std::future<ApproxAnswer> QueryScheduler::SubmitDegradable(
    query::Query query, const storage::PartitionSource& source,
    query::ExecOptions exec, SubmitOptions submit) {
  Admission a = Admit(submit, std::move(exec));
  const QueryClass cls = a.opts.query_class;
  const DegradedMode mode = submit.degraded_mode;
  return Defer(
      [q = std::move(query), &source, mode, a = std::move(a)] {
        a.ThrowIfDead();
        const size_t n = source.num_partitions();
        const std::vector<size_t> lost = source.UnreachablePartitions();
        std::vector<size_t> reachable;
        if (lost.empty()) {
          reachable.resize(n);
          std::iota(reachable.begin(), reachable.end(), size_t{0});
        } else {
          if (mode == DegradedMode::kFail) throw QueryFailed(LostStatus(lost));
          // Reachable = [0, n) minus the (sorted) lost set.
          reachable.reserve(n - std::min(n, lost.size()));
          auto it = lost.begin();
          for (size_t p = 0; p < n; ++p) {
            while (it != lost.end() && *it < p) ++it;
            if (it != lost.end() && *it == p) continue;
            reachable.push_back(p);
          }
          if (reachable.empty()) throw QueryFailed(LostStatus(lost));
        }
        // The degraded plan is the approximate path with the reachable
        // set as the "picked" partitions: the PickedSource view never
        // acquires a lost partition (so no load ever fails on one), and
        // the uniform HT weight n/|reachable| keeps the estimator
        // honest. With nothing lost the weights are exactly 1, the view
        // covers every partition, and the combine is bit-identical to
        // the exact path's ExactAnswer with a zero error surface.
        return ScanWeighted(q, source, query::DegradedSelection(reachable, n),
                            a.opts);
      },
      cls);
}

}  // namespace ps3::runtime
