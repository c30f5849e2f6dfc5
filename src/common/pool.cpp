#include "common/pool.h"

#include <cassert>
#include <exception>
#include <stdexcept>

namespace nbtisim::common {
namespace {

/// Depth of pool-task execution on this thread: > 0 while running a loop
/// body handed out by WorkPool (including the submitting thread's own
/// participation), 0 otherwise.
thread_local int g_task_depth = 0;

/// The calling thread's innermost ThreadBudget value; 0 (hardware
/// concurrency) while no scope is open.
thread_local int g_budget = 0;

/// Hard cap on pool size — requests are bounded by the thread budgets
/// (resolve_threads), this is only a backstop against absurd values.
constexpr int kMaxWorkers = 256;

struct TaskDepthGuard {
  TaskDepthGuard() { ++g_task_depth; }
  ~TaskDepthGuard() { --g_task_depth; }
};

}  // namespace

ThreadBudget::ThreadBudget(int threads) : saved_(g_budget) {
  if (threads < 0) {
    throw std::invalid_argument("ThreadBudget: negative thread count");
  }
  g_budget = threads;
}

ThreadBudget::~ThreadBudget() { g_budget = saved_; }

int ThreadBudget::current() { return resolve_threads(g_budget); }

/// One submitted loop. Heap-allocated and shared between the submitter and
/// every queued ticket, so a worker that pops a ticket after the loop
/// already drained still touches valid memory (it reads `next`, finds the
/// loop exhausted, and never dereferences fn/ctx).
struct WorkPool::Loop {
  std::atomic<int> next{0};  ///< next unhanded index
  int n = 0;
  int grain = 1;
  LoopFn fn = nullptr;
  void* ctx = nullptr;

  std::mutex m;
  std::condition_variable done;
  int in_flight = 0;  ///< participants currently pulling/running ranges
  std::exception_ptr error;
};

WorkPool& WorkPool::global() {
  static WorkPool pool;
  return pool;
}

bool WorkPool::inside_task() { return g_task_depth > 0; }

int WorkPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

WorkPool::~WorkPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkPool::ensure_workers(int wanted) {
  if (wanted > kMaxWorkers) wanted = kMaxWorkers;
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < wanted) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void WorkPool::participate(Loop& loop) {
  TaskDepthGuard guard;
  for (;;) {
    const int begin = loop.next.fetch_add(loop.grain,
                                          std::memory_order_relaxed);
    if (begin >= loop.n) return;
    const int end = std::min(loop.n, begin + loop.grain);
    try {
      loop.fn(loop.ctx, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(loop.m);
      if (!loop.error) loop.error = std::current_exception();
      loop.next.store(loop.n, std::memory_order_relaxed);  // drain
      return;
    }
  }
}

void WorkPool::worker_main() {
  for (;;) {
    std::shared_ptr<Loop> loop;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      loop = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      std::lock_guard<std::mutex> lock(loop->m);
      ++loop->in_flight;
    }
    participate(*loop);
    {
      std::lock_guard<std::mutex> lock(loop->m);
      --loop->in_flight;
    }
    // The submitter waits on `done` under loop->m, so the body's writes are
    // published to it by the lock pair above.
    loop->done.notify_all();
  }
}

void WorkPool::run(int n, int k, int grain, LoopFn fn, void* ctx) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (k > 1 && inside_task()) {
    // Nested submission is the k x k oversubscription bug; parallel_for
    // diverts nested loops to its serial path before reaching here.
    assert(!"WorkPool::run: nested submission from inside a pool task");
    k = 1;
  }
  if (k <= 1) {
    fn(ctx, 0, n);
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->n = n;
  loop->grain = grain;
  loop->fn = fn;
  loop->ctx = ctx;

  const int extra = std::min(k - 1, kMaxWorkers);
  ensure_workers(extra);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int t = 0; t < extra; ++t) queue_.push_back(loop);
  }
  if (extra == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }

  participate(*loop);

  {
    std::unique_lock<std::mutex> lock(loop->m);
    loop->done.wait(lock, [&] {
      return loop->in_flight == 0 &&
             loop->next.load(std::memory_order_relaxed) >= loop->n;
    });
  }
  {
    // Drop tickets nobody claimed (all work already done): keeps the queue
    // from accumulating dead entries when submitters outpace free workers.
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(queue_, loop);
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace nbtisim::common
