/// \file pool.h
/// \brief The process-wide deterministic work pool behind parallel_for, and
///        the per-thread budget that sets how wide its loops run.
///
/// Callers submit *loops* (index ranges) as tasks; the pool owns one set of
/// long-lived worker threads that all loops share. Work inside a loop is
/// still handed out from a shared atomic counter — every index (or
/// fixed-grain index range) writes only its own output slot, so results
/// never depend on which thread ran which index and stay bit-identical for
/// every thread count, exactly like the per-call-spawn implementation this
/// replaces. What changed is purely the execution vehicle:
///
///  - threads are created once (lazily, up to the largest participant count
///    ever requested) instead of per parallel_for call — the ~100 us x k
///    spawn/join cost per call was eating the parallelism of the campaign
///    scheduler and the MC/search layers (a 0.85x campaign "speedup");
///  - concurrent loops — two campaigns, or a campaign plus an interactive
///    analysis — interleave on the same workers instead of multiplying
///    thread counts;
///  - a parallel_for issued from *inside* a pool task runs serially on the
///    issuing worker: inner engines share the pool's slots rather than
///    spawning their own team, fixing the k x k oversubscription of
///    scheduler workers that each started inner threads. Debug builds
///    assert that no nested submission reaches the pool.
///
/// How wide a loop runs is not a parameter of the loop. It is the calling
/// thread's ThreadBudget: the owner of a thread (the CLI for --threads,
/// run_campaign for CampaignSpec::n_threads, run_query for its argument)
/// opens one scope, and every parallel_for that thread reaches — however
/// deep in the engines — runs at that width. A budget of 1 therefore keeps
/// every inner loop on the caller. With no scope open the width is the
/// hardware concurrency.
///
/// Callers that need reductions still accumulate into per-index storage and
/// reduce serially in index order afterwards — see estimate_signal_stats
/// and AgingAnalyzer::gate_dvth.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nbtisim::common {

/// Resolves a thread count: values < 1 mean "use the hardware".
inline int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// RAII scope that sets the calling thread's loop width: every
/// parallel_for the thread issues while the scope is open runs on up to
/// resolve_threads(threads) participants (0 = hardware concurrency).
/// Scopes nest; closing one, also by an exception, restores the enclosing
/// width. The budget belongs to the thread that opened it — pool workers
/// and other threads keep their own — and loops inside a pool task stay
/// serial whatever the budget.
class ThreadBudget {
 public:
  /// \throws std::invalid_argument for a negative \p threads
  explicit ThreadBudget(int threads);
  ~ThreadBudget();
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;

  /// The calling thread's current width, resolved (>= 1).
  static int current();

 private:
  int saved_;
};

/// The shared worker pool. One instance per process (global()); loops are
/// submitted through run(), normally via the parallel_for wrappers below.
class WorkPool {
 public:
  /// Type-erased loop body: invoke the user body for every index in
  /// [begin, end).
  using LoopFn = void (*)(void* ctx, int begin, int end);

  /// The process-wide pool. Workers are started lazily by run() and joined
  /// at process exit.
  static WorkPool& global();

  /// Runs fn(ctx, i, i+grain) for every grain-aligned range of [0, n) with
  /// up to \p k concurrent participants: the calling thread plus at most
  /// k - 1 pool workers. Hand-out is one atomic counter, so results are
  /// bit-identical for every k. Blocks until every handed-out range
  /// finished; the first exception thrown by the body is rethrown here
  /// after the loop drains. Called from inside a pool task, the loop runs
  /// serially on the calling thread (debug builds assert on it first —
  /// nested submission is the oversubscription bug this pool removes).
  void run(int n, int k, int grain, LoopFn fn, void* ctx);

  /// True while the calling thread is executing a pool task — used to keep
  /// nested loops serial and to assert against nested spawning.
  static bool inside_task();

  /// Workers started so far (grows on demand, never shrinks).
  int workers() const;

  ~WorkPool();
  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

 private:
  WorkPool() = default;

  struct Loop;
  void ensure_workers(int wanted);
  void worker_main();
  static void participate(Loop& loop);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Loop>> queue_;  ///< participation tickets
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Invokes body(i) for every i in [0, n) on up to ThreadBudget::current()
/// shared-pool participants, handing out \p grain consecutive indices per
/// atomic-counter pull. body must be safe to run concurrently for distinct
/// indices; invocation order is unspecified; results are bit-identical for
/// every thread count. If any invocation throws, the first exception is
/// rethrown on the calling thread after the loop drains.
template <typename Body>
void parallel_for_grain(int n, int grain, Body&& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int chunks = (n + grain - 1) / grain;
  const int k = std::min(ThreadBudget::current(), chunks);
  if (k <= 1 || WorkPool::inside_task()) {
    // Serial: a budget of one, nothing to share — or we *are* a pool task
    // already, and inner loops must not multiply the worker count.
    for (int i = 0; i < n; ++i) body(i);
    return;
  }
  using B = std::remove_reference_t<Body>;
  WorkPool::global().run(
      n, k, grain,
      [](void* ctx, int begin, int end) {
        B& b = *static_cast<B*>(ctx);
        for (int i = begin; i < end; ++i) b(i);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// parallel_for_grain with single-index hand-out — the default used by
/// every coarse-grained loop in the codebase.
template <typename Body>
void parallel_for(int n, Body&& body) {
  parallel_for_grain(n, 1, std::forward<Body>(body));
}

}  // namespace nbtisim::common
