// util::SharedSlot — a publication slot for one immutable object.
//
// A writer store()s the next object; readers load() a shared_ptr to the
// current one and keep it for as long as they read, so an object retires
// only after its last reader drops it and a reader never sees a half-built
// one.  QueryEngine publishes its snapshots this way, ShardedCluster its
// per-epoch views.
//
// The slot is a mutex-guarded shared_ptr rather than
// std::atomic<std::shared_ptr>: libstdc++'s lock-bit implementation
// releases its load() lock with a relaxed RMW, which leaves no provable
// happens-before edge to the next store()'s pointer swap (TSan flags it).
// The critical section is a single refcount bump — readers never hold the
// lock while they read — and store() drops the old object outside the
// lock, so a (potentially large) teardown never blocks readers acquiring
// the new one.
#pragma once

#include <memory>
#include <mutex>

namespace apc::util {

template <typename T>
class SharedSlot {
 public:
  std::shared_ptr<T> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }
  void store(std::shared_ptr<T> next) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ptr_.swap(next);
    }
    // `next` holds the old object here and releases it unlocked.
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> ptr_;
};

}  // namespace apc::util
