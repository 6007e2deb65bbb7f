#include "exec/workspace.hpp"

#include <utility>

#include "fiber/fiber.hpp"
#include "fiber/stack.hpp"
#include "support/assert.hpp"

namespace rts::exec {

namespace {

/// Workspace process stacks are deliberately smaller than the fresh path's
/// 128 KB default: algorithm frames are shallow (all elections are
/// iterative; combiner children bring their own stacks), and with hundreds
/// of fibers per stream the denser footprint measurably cuts the
/// stack-switch cache traffic of the random adversary.  Each fiber's first
/// frame starts its mapping's cache color below the top
/// (fiber::MmapStack::colored_top): a stream's k stacks, mapped in a row,
/// cycle through 32 colors, so their hot top frames spread over 2 KB of L1
/// set space instead of aliasing on one page offset.  The color is capped
/// below 2 KB (at most 1984 B), which leaves the frames ample room in
/// 16 KB and keeps the top frames on one page.  The guard page still
/// faults deterministically on overflow.
constexpr std::size_t kWorkspaceStackBytes = 16 * 1024;

bool same_options(const sim::Kernel::Options& a, const sim::Kernel::Options& b) {
  return a.step_limit == b.step_limit && a.track_events == b.track_events &&
         a.rmr_model == b.rmr_model;
}

}  // namespace

TrialWorkspace::Stream& TrialWorkspace::prepare(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    sim::Kernel::Options kernel_options) {
  for (auto& stream : streams_) {
    if (stream->key != key) continue;
    if (stream->n == n && stream->k == k &&
        same_options(stream->kernel_options, kernel_options)) {
      stream->last_used = ++clock_;
      return *stream;
    }
    // Same key, different configuration: the caller recycled a key (legal
    // but unusual); rebuild in place.
    stream->n = n;
    stream->k = k;
    stream->kernel_options = kernel_options;
    build(*stream, builder);
    stream->last_used = ++clock_;
    return *stream;
  }

  if (streams_.size() >= options_.max_prepared && !streams_.empty()) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < streams_.size(); ++i) {
      if (streams_[i]->last_used < streams_[victim]->last_used) victim = i;
    }
    // Tearing the stream down releases its fibers' stacks into the
    // thread-local pool, where the replacement stream's build reclaims them.
    streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(victim));
  }

  auto stream = std::make_unique<Stream>();
  stream->key = key;
  stream->n = n;
  stream->k = k;
  stream->kernel_options = kernel_options;
  build(*stream, builder);
  stream->last_used = ++clock_;
  streams_.push_back(std::move(stream));
  return *streams_.back();
}

void TrialWorkspace::build(Stream& stream, const sim::LeBuilder& builder) {
  ++stream_builds_;
  stream.kernel = std::make_unique<sim::Kernel>(stream.kernel_options);
  stream.built = builder(*stream.kernel, stream.n);
  stream.outcomes.assign(static_cast<std::size_t>(stream.k),
                         sim::Outcome::kUnknown);
  stream.rngs.clear();
  stream.rngs.reserve(static_cast<std::size_t>(stream.k));
  stream.adversary.reset();  // a reshaped stream may mean a new scheduler
  Stream* slots = &stream;  // stable: streams_ stores unique_ptrs
  for (int pid = 0; pid < stream.k; ++pid) {
    auto rng = std::make_unique<support::PrngSource>(0);
    stream.rngs.push_back(rng.get());
    stream.kernel->add_process(
        [slots, pid](sim::Context& ctx) {
          slots->outcomes[static_cast<std::size_t>(pid)] =
              slots->built.elect(ctx);
        },
        std::move(rng),
        fiber::acquire_stack(kWorkspaceStackBytes));
  }
  stream.fresh = true;
}

bool TrialWorkspace::drive_stream(Stream& stream, sim::Adversary& adversary,
                                  std::uint64_t seed) {
  if (!stream.fresh) {
    stream.kernel->rewind();
    if (stream.built.reset) stream.built.reset();
  }
  stream.fresh = false;
  for (int pid = 0; pid < stream.k; ++pid) {
    stream.rngs[static_cast<std::size_t>(pid)]->reseed(
        support::derive_seed(seed, static_cast<std::uint64_t>(pid)));
    stream.outcomes[static_cast<std::size_t>(pid)] = sim::Outcome::kUnknown;
  }

  const bool completed = stream.kernel->run(adversary);
  ++trials_run_;
  return completed;
}

sim::LeRunResult TrialWorkspace::run_on_stream(Stream& stream,
                                               sim::Adversary& adversary,
                                               std::uint64_t seed) {
  const bool completed = drive_stream(stream, adversary, seed);
  return sim::collect_le_result(*stream.kernel, stream.n, stream.k,
                                stream.outcomes,
                                stream.built.declared_registers, completed,
                                stream.built.abortable);
}

sim::Adversary& TrialWorkspace::trial_adversary(
    Stream& stream, const sim::AdversaryFactory& factory,
    std::uint64_t adversary_seed) {
  // Pooled adversary: reseed the stream's scheduler back to
  // freshly-constructed state; allocate only on the first trial (or for
  // bespoke adversaries that cannot reseed).
  if (stream.adversary == nullptr || !stream.adversary->reseed(adversary_seed)) {
    stream.adversary = factory(adversary_seed);
    ++adversary_builds_;
  }
  return *stream.adversary;
}

sim::LeRunResult TrialWorkspace::run_le_once(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    sim::Adversary& adversary, std::uint64_t seed,
    sim::Kernel::Options kernel_options) {
  RTS_REQUIRE(k >= 1 && k <= n, "need 1 <= k <= n participants");
  Stream& stream = prepare(key, builder, n, k, kernel_options);
  return run_on_stream(stream, adversary, seed);
}

sim::LeRunResult TrialWorkspace::run_le_trial(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    const sim::AdversaryFactory& adversary_factory, int trial,
    std::uint64_t seed0, sim::Kernel::Options kernel_options) {
  RTS_REQUIRE(k >= 1 && k <= n, "need 1 <= k <= n participants");
  const std::uint64_t seed = sim::trial_seed(seed0, trial);
  Stream& stream = prepare(key, builder, n, k, kernel_options);
  sim::Adversary& adversary = trial_adversary(stream, adversary_factory,
                                              sim::adversary_seed(seed));
  return run_on_stream(stream, adversary, seed);
}

TrialSummary TrialWorkspace::run_le_trial_summary(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    const sim::AdversaryFactory& factory, int trial, std::uint64_t seed0,
    sim::Kernel::Options kernel_options) {
  RTS_REQUIRE(k >= 1 && k <= n, "need 1 <= k <= n participants");
  const std::uint64_t seed = sim::trial_seed(seed0, trial);
  Stream& stream = prepare(key, builder, n, k, kernel_options);
  sim::Adversary& adversary =
      trial_adversary(stream, factory, sim::adversary_seed(seed));
  const bool completed = drive_stream(stream, adversary, seed);
  return sim::summarize_le_trial(*stream.kernel, stream.k, stream.outcomes,
                                 stream.built.declared_registers, completed,
                                 stream.built.abortable);
}

TrialSummary TrialWorkspace::run_le_batch_trial(
    std::uint64_t key, const BatchStreamFactory& factory, int lanes,
    int trial, int cell_trials) {
  RTS_REQUIRE(lanes >= 1 && lanes <= sim::kMaxBatchLanes,
              "lanes out of range");
  RTS_REQUIRE(trial >= 0 && trial < cell_trials, "trial out of range");
  BatchSlot* slot = nullptr;
  for (auto& candidate : batch_slots_) {
    if (candidate->key == key) {
      slot = candidate.get();
      break;
    }
  }
  if (slot == nullptr) {
    if (batch_slots_.size() >= options_.max_prepared &&
        !batch_slots_.empty()) {
      std::size_t victim = 0;
      for (std::size_t i = 1; i < batch_slots_.size(); ++i) {
        if (batch_slots_[i]->last_used < batch_slots_[victim]->last_used) {
          victim = i;
        }
      }
      batch_slots_.erase(batch_slots_.begin() +
                         static_cast<std::ptrdiff_t>(victim));
    }
    auto fresh = std::make_unique<BatchSlot>();
    fresh->key = key;
    fresh->stream = factory();
    RTS_REQUIRE(fresh->stream != nullptr,
                "batch stream factory returned nullptr (cell is ineligible; "
                "callers must gate on algo::make_batch_stream)");
    batch_slots_.push_back(std::move(fresh));
    slot = batch_slots_.back().get();
  }
  slot->last_used = ++clock_;
  ++batch_trials_run_;
  return slot->stream->run_trial(trial);
}

}  // namespace rts::exec
