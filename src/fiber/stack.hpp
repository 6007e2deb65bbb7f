// RAII mmap-backed fiber stacks with an inaccessible guard page at the low
// end, so stack overflow in a fiber faults immediately instead of silently
// corrupting a neighbouring stack.
#pragma once

#include <cstddef>

namespace rts::fiber {

class MmapStack {
 public:
  /// An empty stack (no mapping); the target of moves and the state a
  /// borrowed-stack slot starts in before its lazy first acquisition.
  MmapStack() = default;
  /// Maps `usable_bytes` (rounded up to whole pages) of read/write memory
  /// plus one PROT_NONE guard page below it.  Throws rts::Error on failure.
  explicit MmapStack(std::size_t usable_bytes);
  ~MmapStack();

  MmapStack(const MmapStack&) = delete;
  MmapStack& operator=(const MmapStack&) = delete;
  MmapStack(MmapStack&& other) noexcept;
  MmapStack& operator=(MmapStack&& other) noexcept;

  /// Base of the usable region (above the guard page).
  void* base() const { return usable_; }
  std::size_t size() const { return usable_bytes_; }

  /// Where a fiber's first frame starts: the usable top lowered by this
  /// mapping's cache color, a multiple of 64 B below 2 KB (so the top stays
  /// 16-byte aligned).  Without it every stack's hot top-of-stack frames
  /// sit at the same offset within a 4 KB page and compete for the same L1
  /// sets whenever a scheduler hops between fibers.  Colors cycle through
  /// 32 values in the order a thread maps its stacks, so any 32 stacks one
  /// thread mapped in a row spread over 2 KB of set space whatever their
  /// addresses.  The color is fixed for the mapping's life: a rewound or
  /// pooled stack keeps it.  Keep the cap at 2 KB: larger offsets push the
  /// top frames into a second page and raise RSS.
  char* colored_top() const {
    return static_cast<char*>(usable_) + usable_bytes_ - color_bytes_;
  }

 private:
  void release() noexcept;

  void* mapping_ = nullptr;       // includes the guard page
  std::size_t mapping_bytes_ = 0;
  void* usable_ = nullptr;
  std::size_t usable_bytes_ = 0;
  std::size_t color_bytes_ = 0;
};

/// Thread-local stack recycling.  The model checker constructs and destroys
/// fibers millions of times; reusing mappings avoids mmap/mprotect on every
/// execution.  Stacks are pooled per thread (no locking) and only handed out
/// for the exact usable size requested.
MmapStack acquire_stack(std::size_t usable_bytes);
void release_stack(MmapStack stack) noexcept;

/// Number of stack mappings currently alive in the whole process, whether in
/// use by a fiber or parked in a thread-local pool.  Observability for the
/// abandoned-fiber leak regression tests: a schedule that abandons fibers
/// owning their stacks would grow this count without bound.
std::size_t live_stack_count();

}  // namespace rts::fiber
