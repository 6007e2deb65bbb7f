// The pid-ordered runnable set both sim engines schedule from: the kernel
// (sim/kernel.hpp) and the batch engine (sim/batch.cpp).
//
// A sorted vector of pids.  Every scheduler picks by rank -- the random
// schedules take runnable[rng.draw(size)], sequential takes the front -- so
// a pick is one index on every step.  A pid leaves only when it finishes or
// crashes, at most k times per trial, and each erase is a binary search plus
// an O(k) memmove.  The rank order is part of every schedule: a draw of i
// selects the i-th smallest runnable pid in both engines.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

namespace rts::sim {

class RunnableVector {
 public:
  /// Makes all of 0..k-1 runnable.
  void reset(int k) {
    pids_.resize(static_cast<std::size_t>(k));
    std::iota(pids_.begin(), pids_.end(), 0);
  }
  void clear() { pids_.clear(); }
  /// Removes pid; a no-op when it is not in the set.
  void erase(int pid) {
    const auto it = std::lower_bound(pids_.begin(), pids_.end(), pid);
    if (it != pids_.end() && *it == pid) pids_.erase(it);
  }

  /// The i-th smallest runnable pid; requires i < size().
  int operator[](std::size_t i) const { return pids_[i]; }
  int front() const { return pids_.front(); }
  std::size_t size() const { return pids_.size(); }
  bool empty() const { return pids_.empty(); }
  /// The whole set in pid order.
  const std::vector<int>& pids() const { return pids_; }

 private:
  std::vector<int> pids_;
};

}  // namespace rts::sim
