/**
 * @file
 * The tree's one threading mechanism: a fixed-size pool draining a
 * closed work queue. The harness runs scenario units on it; the
 * sharded simulator runs each epoch's shard sub-simulations on it.
 */

#ifndef MCLOCK_BASE_THREAD_POOL_HH_
#define MCLOCK_BASE_THREAD_POOL_HH_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "base/sync.hh"

namespace mclock {
namespace base {

/**
 * Fixed-size pool draining a closed work queue. All queue/counter
 * state is guarded by mu_ and statically checked (base/sync.hh):
 * every access outside the lock is a compile error under
 * -Wthread-safety, so the lock scopes below are the whole story.
 *
 * Tasks start in submission order; a one-thread pool therefore runs
 * them strictly FIFO. drain() may be called any number of times: each
 * call waits for everything submitted so far, and a worker's
 * decrement of pending_ under mu_ happens-before drain()'s return, so
 * the caller (and every task submitted after it) sees all writes the
 * drained tasks made.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers)
    {
        for (unsigned i = 0; i < workers; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            MutexLock lock(mu_);
            closed_ = true;
        }
        cv_.notifyAll();
        for (auto &t : threads_)
            t.join();
    }

    // Workers hold `this`.
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    void
    submit(std::function<void()> task) MCLOCK_EXCLUDES(mu_)
    {
        {
            MutexLock lock(mu_);
            queue_.push(std::move(task));
            ++pending_;
        }
        cv_.notifyOne();
    }

    /** Block until every submitted task has finished. */
    void
    drain() MCLOCK_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        while (pending_ != 0)
            done_.wait(mu_);
    }

  private:
    void
    workerLoop() MCLOCK_EXCLUDES(mu_)
    {
        for (;;) {
            std::function<void()> task;
            {
                MutexLock lock(mu_);
                while (!closed_ && queue_.empty())
                    cv_.wait(mu_);
                if (queue_.empty())
                    return;  // closed and drained
                task = std::move(queue_.front());
                queue_.pop();
            }
            task();
            {
                MutexLock lock(mu_);
                if (--pending_ == 0)
                    done_.notifyAll();
            }
        }
    }

    Mutex mu_;
    CondVar cv_;    ///< work available (or pool closed)
    CondVar done_;  ///< pending_ hit zero
    std::queue<std::function<void()>> queue_ MCLOCK_GUARDED_BY(mu_);
    std::size_t pending_ MCLOCK_GUARDED_BY(mu_) = 0;
    bool closed_ MCLOCK_GUARDED_BY(mu_) = false;
    std::vector<std::thread> threads_;
};

}  // namespace base
}  // namespace mclock

#endif  // MCLOCK_BASE_THREAD_POOL_HH_
