// A fixed-size worker pool with a simple task queue and join-on-drain.
//
// The concurrency primitive behind the federation server's request workers
// (transport::ExplorationServer) and the sharded event loop
// (net::ShardedEventLoop): a submitter enqueues closures and calls Drain() to
// wait for the batch. The pool itself imposes no ordering — determinism is
// the submitter's job — and owns no task state beyond the queue.
//
// Threads are started once in the constructor and joined in the destructor;
// Submit after destruction begins is a programming error (checked). Tasks
// must not throw (the tree builds without exceptions in mind; a throwing task
// would terminate).

#ifndef SRC_UTIL_WORKER_POOL_H_
#define SRC_UTIL_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dice::util {

class WorkerPool {
 public:
  // Starts `workers` threads (at least 1).
  explicit WorkerPool(size_t workers);

  // Drains outstanding tasks, then stops and joins every thread.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Enqueues `task` for execution on some worker thread.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished executing (queue
  // empty and no task in flight). Other threads may keep submitting; Drain
  // waits for those too — the intended use is one submitter thread.
  void Drain();

  size_t size() const { return threads_.size(); }

  // Lifetime totals (test/stats hooks; exact after Drain).
  uint64_t tasks_executed() const;

  // Runs task(0..count-1) and waits for all of them — the window barrier of
  // the sharded event loop. With a null pool (or a single task) the tasks run
  // inline on the caller, in index order; otherwise they run on `pool`, which
  // must have no other submitters until RunBatch returns (Drain is the
  // barrier, and it waits on every outstanding task in the pool).
  static void RunBatch(WorkerPool* pool, size_t count,
                       const std::function<void(size_t)>& task);

 private:
  void WorkerMain();

  mutable std::mutex mu_;
  std::condition_variable work_ready_;   // signalled on Submit / stop
  std::condition_variable all_idle_;     // signalled when the pool goes idle
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  uint64_t executed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace dice::util

#endif  // SRC_UTIL_WORKER_POOL_H_
