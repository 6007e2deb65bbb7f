#include "sim/kernel.hpp"

#include <algorithm>

#include "sim/adversary.hpp"
#include "support/assert.hpp"

namespace rts::sim {

Kernel::Kernel() : Kernel(Options{}) {}

Kernel::Kernel(Options options) : options_(options) {}

int Kernel::add_process(std::function<void(Context&)> body,
                        std::unique_ptr<support::RandomSource> rng) {
  return add_process(std::move(body), std::move(rng),
                     fiber::acquire_stack(fiber::Fiber::kDefaultStackBytes));
}

int Kernel::add_process(std::function<void(Context&)> body,
                        std::unique_ptr<support::RandomSource> rng,
                        fiber::MmapStack stack) {
  RTS_REQUIRE(!started_, "add_process after start");
  const int pid = static_cast<int>(processes_.size());
  processes_.push_back(std::make_unique<SimProcess>(
      *this, pid, std::move(body), std::move(rng), std::move(stack)));
  steps_.push_back(0);
  return pid;
}

void Kernel::start() {
  RTS_REQUIRE(!started_, "kernel already started");
  started_ = true;
  // RMR accounting needs the process count, which is only final here.
  if (options_.rmr_model != rmr::RmrModel::kNone && num_processes() > 0) {
    rmr_.configure(options_.rmr_model, num_processes());
    memory_.set_rmr_counter(&rmr_);
  }
  for (auto& proc : processes_) {
    if (proc->state() == SimProcess::State::kUnstarted) proc->start();
  }
  // Built after the prologues: a process that finished there (or crashed
  // before start()) never runs.
  runnable_.reset(num_processes());
  for (const auto& proc : processes_) {
    if (!proc->runnable()) runnable_.erase(proc->pid());
  }
}

void Kernel::rewind() {
  started_ = false;
  total_steps_ = 0;
  std::fill(steps_.begin(), steps_.end(), 0);
  abort_requests_ = 0;
  event_log_.clear();
  memory_.reset_values();
  rmr_.reset();
  for (auto& proc : processes_) proc->rewind();
  runnable_.clear();
}

const SimProcess& Kernel::process(int pid) const {
  RTS_ASSERT(pid >= 0 && pid < num_processes());
  return *processes_[pid];
}

std::vector<int> Kernel::runnable_pids() const {
  std::vector<int> out;
  out.reserve(processes_.size());
  for (const auto& proc : processes_) {
    if (proc->runnable()) out.push_back(proc->pid());
  }
  return out;
}

bool Kernel::all_done() const {
  for (const auto& proc : processes_) {
    if (proc->state() == SimProcess::State::kReady ||
        proc->state() == SimProcess::State::kUnstarted) {
      return false;
    }
  }
  return true;
}

void Kernel::grant(int pid) {
  RTS_ASSERT(pid >= 0 && pid < num_processes());
  SimProcess& proc = *processes_[pid];
  RTS_ASSERT_MSG(proc.runnable(), "grant to non-runnable process");

  // By reference: pending_ stays untouched until resume_with_result lets the
  // fiber announce its next op, after our last use.
  const PendingOp& op = proc.pending();
  // Filling an OpRecord costs a noticeable slice of a ~50ns step; skip it
  // entirely unless someone is listening.
  const bool record_op = op_observer_ != nullptr || options_.track_events;
  OpRecord record;
  if (record_op) {
    record.step = total_steps_;
    record.pid = pid;
    record.kind = op.kind;
    record.reg = op.reg;
    record.prev_writer = memory_.slot(op.reg).last_writer;
  }

  std::uint64_t result = 0;
  if (op.kind == OpKind::kRead) {
    result = memory_.read(op.reg, pid);
    if (record_op) record.value = result;
  } else {
    memory_.write(op.reg, op.value, pid);
    if (record_op) record.value = op.value;
  }
  ++total_steps_;
  ++steps_[static_cast<std::size_t>(pid)];

  if (op_observer_) op_observer_(record);
  if (options_.track_events) event_log_.push_back(record);

  proc.resume_with_result(result);
  // A granted process either announced again (still runnable) or finished;
  // only the latter changes the runnable set.
  if (proc.state() != SimProcess::State::kReady) runnable_.erase(pid);
}

void Kernel::crash(int pid) {
  RTS_ASSERT(pid >= 0 && pid < num_processes());
  SimProcess& proc = *processes_[pid];
  RTS_ASSERT_MSG(proc.state() == SimProcess::State::kReady ||
                     proc.state() == SimProcess::State::kUnstarted,
                 "crash of a process that already finished or crashed");
  proc.crash();
  // A no-op for a pid crashed before start(): the set is not built yet.
  runnable_.erase(pid);
}

void Kernel::abort_request(int pid) {
  RTS_ASSERT(pid >= 0 && pid < num_processes());
  SimProcess& proc = *processes_[pid];
  // Lenient by design: an abort that arrives after the process finished or
  // crashed models a caller whose abort raced completion -- it changes
  // nothing and is not an error.  Repeat requests are likewise idempotent.
  if (proc.abort_requested_) return;
  if (proc.state() != SimProcess::State::kReady &&
      proc.state() != SimProcess::State::kUnstarted) {
    return;
  }
  proc.abort_requested_ = true;
  ++abort_requests_;
}

bool Kernel::run(Adversary& adversary) {
  if (!started_) start();
  // The view only points at the runnable set and the step counters, so
  // one view serves the whole run.
  const KernelView view(*this, adversary.clazz());
  // Post-start() no process is kUnstarted, so "all done" is exactly "the
  // runnable set is empty" -- and the exact set makes that O(1) per step.
  while (!runnable_pids_cached().empty()) {
    if (total_steps_ >= options_.step_limit) return false;
    const Action action = adversary.next(view);
    switch (action.kind) {
      case Action::Kind::kStep:
        grant(action.pid);
        break;
      case Action::Kind::kCrash:
        crash(action.pid);
        break;
      case Action::Kind::kAbort:
        abort_request(action.pid);
        break;
    }
  }
  return true;
}

}  // namespace rts::sim
