// Deterministic parallel sweep runner.
//
// Every figure in the paper is a sweep over independent configurations
// (PERIOD, contention level, workload mix); each point builds its own
// Engine/Cluster and shares nothing with its neighbours.  SweepRunner
// fans those points out across a fixed-size thread pool and collects the
// results in input order, so the output is byte-identical to a serial
// loop — parallelism changes wall-clock time only, never results.
//
// Requirements on the job function: it must not touch mutable state shared
// across points (each point constructs its own Session/Cluster/Engine/Rng;
// globals such as the log level are read-only during a sweep).  Exceptions
// thrown by a job are captured and rethrown on the caller's thread — the
// first failing input index wins, matching serial behaviour.
//
// The worker count comes from the TFSIM_JOBS environment variable by
// default: unset or 1 → serial (run on the calling thread, no pool),
// 0 → one worker per hardware thread, N → N workers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tfsim::sim {

/// Ceiling for thread counts taken from the environment.  Far above any
/// sane machine, but low enough that a negative value wrapped through
/// strtoul (TFSIM_JOBS=-1 -> 4294967295) or a typo'd exponent can no
/// longer ask for billions of threads.
inline constexpr unsigned kMaxEnvThreads = 256;

/// Hardened thread-count parser behind TFSIM_JOBS (jobs_from_env):
///   unset/empty -> `fallback`
///   "0"         -> one worker per hardware thread
///   1..ceiling  -> that many workers
///   negative or non-numeric junk -> warn, `fallback`
///   > kMaxEnvThreads (including strtoul overflow) -> warn, clamp
unsigned env_thread_count(const char* name, unsigned fallback);

class SweepRunner {
 public:
  /// `jobs` = maximum worker threads; values < 1 are clamped to 1 (serial).
  explicit SweepRunner(unsigned jobs = jobs_from_env())
      : jobs_(jobs < 1 ? 1 : jobs) {}

  /// Worker count from $TFSIM_JOBS (see file comment).
  static unsigned jobs_from_env();

  unsigned jobs() const { return jobs_; }

  /// Run `fn(i)` for every i in [0, count) and return the results in input
  /// order.  With jobs() == 1 (or count < 2) the jobs run inline on the
  /// calling thread; otherwise a pool of min(jobs, count) threads pulls
  /// indices from a shared counter.  Either way the result vector is
  /// identical.
  template <typename Fn>
  auto run(std::size_t count, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "SweepRunner jobs must return a result (the sweep row)");
    std::vector<R> results;
    if (count == 0) return results;
    results.reserve(count);
    const std::size_t workers = std::min<std::size_t>(jobs_, count);
    if (workers <= 1) {
      for (std::size_t i = 0; i < count; ++i) results.push_back(fn(i));
      return results;
    }

    std::vector<std::optional<R>> staging(count);
    std::vector<std::exception_ptr> errors(count);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          staging[i].emplace(fn(i));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();

    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (auto& s : staging) results.push_back(std::move(*s));
    return results;
  }

  /// Map `fn` over `inputs`, results in input order.
  template <typename T, typename Fn>
  auto map(const std::vector<T>& inputs, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, const T&>> {
    return run(inputs.size(),
               [&](std::size_t i) { return fn(inputs[i]); });
  }

 private:
  unsigned jobs_;
};

}  // namespace tfsim::sim
