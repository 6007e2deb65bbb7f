#include "sim/adversary.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace rts::sim {

const char* to_string(AdversaryClass clazz) {
  switch (clazz) {
    case AdversaryClass::kOblivious:
      return "oblivious";
    case AdversaryClass::kLocationOblivious:
      return "location-oblivious";
    case AdversaryClass::kRWOblivious:
      return "rw-oblivious";
    case AdversaryClass::kAdaptive:
      return "adaptive";
  }
  return "?";
}

KernelView::KernelView(const Kernel& kernel, AdversaryClass clazz)
    : kernel_(&kernel),
      clazz_(clazz),
      runnable_(&kernel.runnable_pids_cached()),
      steps_(&kernel.steps_),
      total_steps_(&kernel.total_steps_) {}

KernelView::KernelView(const std::vector<int>& runnable,
                       const std::vector<std::uint64_t>& steps,
                       const std::uint64_t& total_steps)
    : kernel_(nullptr),
      clazz_(AdversaryClass::kOblivious),
      runnable_(&runnable),
      steps_(&steps),
      total_steps_(&total_steps) {}

bool KernelView::is_runnable(int pid) const {
  return std::binary_search(runnable_->begin(), runnable_->end(), pid);
}

PendingOpView KernelView::pending(int pid) const {
  RTS_ASSERT(is_runnable(pid));
  PendingOpView view;
  view.pid = pid;
  // An oblivious adversary sees no pending information at all.
  if (clazz_ == AdversaryClass::kOblivious) return view;
  RTS_ASSERT(kernel_ != nullptr);
  const PendingOp& op = kernel_->pending(pid);
  const bool hide_kind = clazz_ == AdversaryClass::kRWOblivious &&
                         op.tags.random_kind;
  const bool hide_reg = clazz_ == AdversaryClass::kLocationOblivious &&
                        op.tags.random_location;
  if (!hide_kind) {
    view.kind = op.kind;
    if (op.kind == OpKind::kWrite) view.value = op.value;
  }
  if (!hide_reg) view.reg = op.reg;
  return view;
}

const Kernel& KernelView::adaptive_full_access() const {
  RTS_ASSERT_MSG(clazz_ == AdversaryClass::kAdaptive,
                 "full kernel access is restricted to the adaptive adversary");
  return *kernel_;
}

}  // namespace rts::sim
