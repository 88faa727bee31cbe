// Per-thread memo slots owned by one object.
//
// The objective closures of the amplifier, mission and extract layers keep
// a persistent evaluator plus a memo of their last evaluation.  Those
// closures may run concurrently under parallel_map, so the state lives in
// one slot per calling thread: recomputation is pure, hence results are
// bit-identical at any thread count.  ThreadSlots<T> is that slot store.
// Its slots belong to it and are destroyed with it, so a short-lived
// objective leaves nothing behind on the (possibly process-lifetime)
// threads that called it.
//
// Lookup: each thread remembers the last (owner, slot) pair it resolved
// per slot type T, so repeated calls into the same object — the optimizer
// loop — cost one thread_local load and one compare.  Switching objects on
// a thread takes the slow path: a mutex plus a scan over the object's
// slots (one per thread that ever called it).  Owner ids are never reused,
// so a remembered pair of a destroyed object can never match again.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gnsslna::numeric {

template <typename T>
class ThreadSlots {
 public:
  ThreadSlots() = default;

  ThreadSlots(const ThreadSlots&) = delete;
  ThreadSlots& operator=(const ThreadSlots&) = delete;

  /// The calling thread's slot, value-initialized on its first call.  A
  /// slot is only ever touched by the thread it belongs to (a thread id
  /// reused after its thread exited inherits a slot nobody else holds).
  T& local() {
    Recent& recent = recent_slot();
    if (recent.owner != id_) {
      recent = {id_, find_or_create(std::this_thread::get_id())};
    }
    return *recent.slot;
  }

 private:
  struct Recent {
    std::uint64_t owner = 0;  // 0 never names a live object
    T* slot = nullptr;
  };

  static Recent& recent_slot() {
    thread_local Recent recent;
    return recent;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  T* find_or_create(std::thread::id thread) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [owner, slot] : slots_) {
      if (owner == thread) return slot.get();
    }
    slots_.emplace_back(thread, std::make_unique<T>());
    return slots_.back().second.get();
  }

  const std::uint64_t id_ = next_id();
  std::mutex mutex_;  // guards slots_
  std::vector<std::pair<std::thread::id, std::unique_ptr<T>>> slots_;
};

}  // namespace gnsslna::numeric
