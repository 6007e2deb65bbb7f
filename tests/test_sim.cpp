// Tests for the simulator substrate: memory accounting, process lifecycle,
// pending-op announcement, adversary view filtering per adversary class,
// crash semantics, determinism, and the high-level runner.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/adversaries.hpp"
#include "sim/adversary.hpp"
#include "sim/kernel.hpp"
#include "sim/memory.hpp"
#include "sim/runner.hpp"
#include "support/rng.hpp"

namespace rts::sim {
namespace {

std::unique_ptr<support::RandomSource> prng(std::uint64_t seed) {
  return std::make_unique<support::PrngSource>(seed);
}

TEST(Memory, AllocReadWriteAccounting) {
  SimMemory mem;
  const RegId a = mem.alloc("a");
  const RegId b = mem.alloc("b");
  EXPECT_EQ(mem.allocated(), 2u);
  EXPECT_EQ(mem.touched(), 0u);

  mem.write(a, 7, /*pid=*/3);
  EXPECT_EQ(mem.read(a, /*pid=*/1), 7u);
  EXPECT_EQ(mem.slot(a).last_writer, 3);
  EXPECT_EQ(mem.slot(a).reads, 1u);
  EXPECT_EQ(mem.slot(a).writes, 1u);
  EXPECT_EQ(mem.slot(b).last_writer, -1);
  EXPECT_EQ(mem.touched(), 1u);
  EXPECT_EQ(mem.total_reads(), 1u);
  EXPECT_EQ(mem.total_writes(), 1u);
}

TEST(Kernel, ProcessAnnouncesAndStepsCount) {
  Kernel kernel;
  const RegId reg = kernel.memory().alloc("r");
  std::uint64_t seen = 999;
  kernel.add_process(
      [&](Context& ctx) {
        ctx.write(reg, 5);
        seen = ctx.read(reg);
      },
      prng(1));
  kernel.start();

  ASSERT_TRUE(kernel.runnable(0));
  EXPECT_EQ(kernel.pending(0).kind, OpKind::kWrite);
  EXPECT_EQ(kernel.pending(0).reg, reg);
  EXPECT_EQ(kernel.pending(0).value, 5u);

  kernel.grant(0);  // the write executes; the read is announced
  EXPECT_EQ(kernel.memory().slot(reg).value, 5u);
  EXPECT_EQ(kernel.pending(0).kind, OpKind::kRead);
  EXPECT_EQ(seen, 999u) << "read not yet executed";

  kernel.grant(0);
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(kernel.state(0), SimProcess::State::kFinished);
  EXPECT_EQ(kernel.steps(0), 2u);
  EXPECT_TRUE(kernel.all_done());
}

TEST(Kernel, InterleavingIsAdversaryControlled) {
  Kernel kernel;
  const RegId reg = kernel.memory().alloc("r");
  std::uint64_t read_by_1 = 0;
  kernel.add_process([&](Context& ctx) { ctx.write(reg, 10); }, prng(1));
  kernel.add_process([&](Context& ctx) { read_by_1 = ctx.read(reg); },
                     prng(2));
  kernel.start();

  // Schedule the reader first: it must see 0.
  kernel.grant(1);
  EXPECT_EQ(read_by_1, 0u);
  kernel.grant(0);
  EXPECT_TRUE(kernel.all_done());
}

TEST(Kernel, CrashedProcessNeverRuns) {
  Kernel kernel;
  const RegId reg = kernel.memory().alloc("r");
  kernel.add_process([&](Context& ctx) { ctx.write(reg, 1); }, prng(1));
  kernel.add_process([&](Context& ctx) { ctx.write(reg, 2); }, prng(2));
  kernel.start();

  kernel.crash(0);
  EXPECT_EQ(kernel.state(0), SimProcess::State::kCrashed);
  EXPECT_FALSE(kernel.runnable(0));
  kernel.grant(1);
  EXPECT_TRUE(kernel.all_done());
  EXPECT_EQ(kernel.memory().slot(reg).value, 2u);
  EXPECT_EQ(kernel.steps(0), 0u);
}

TEST(Kernel, StepLimitAborts) {
  Kernel::Options options;
  options.step_limit = 10;
  Kernel kernel(options);
  const RegId reg = kernel.memory().alloc("r");
  kernel.add_process(
      [&](Context& ctx) {
        for (;;) ctx.read(reg);  // diverges on purpose
      },
      prng(1));
  RoundRobinAdversary rr;
  EXPECT_FALSE(kernel.run(rr));
  EXPECT_EQ(kernel.total_steps(), 10u);
}

TEST(Kernel, EventLogAndObserver) {
  Kernel::Options options;
  options.track_events = true;
  Kernel kernel(options);
  const RegId reg = kernel.memory().alloc("r");
  int observed = 0;
  kernel.set_op_observer([&](const OpRecord& rec) {
    ++observed;
    EXPECT_EQ(rec.reg, reg);
  });
  kernel.add_process(
      [&](Context& ctx) {
        ctx.write(reg, 3);
        ctx.read(reg);
      },
      prng(1));
  RoundRobinAdversary rr;
  ASSERT_TRUE(kernel.run(rr));
  EXPECT_EQ(observed, 2);
  ASSERT_EQ(kernel.event_log().size(), 2u);
  EXPECT_EQ(kernel.event_log()[0].kind, OpKind::kWrite);
  EXPECT_EQ(kernel.event_log()[1].kind, OpKind::kRead);
  EXPECT_EQ(kernel.event_log()[1].prev_writer, 0);
}

TEST(Kernel, RunnableSetStaysExactUnderRandomGrantCrashAbort) {
  // The kernel keeps its runnable set incrementally; after every call it
  // must equal a full rescan.  Process p performs rng-drawn 0..3 ops, so
  // some finish in their prologue; some are crashed before start(); the
  // same kernel is rewound and rerun three times.
  constexpr int kProcesses = 12;
  Kernel kernel;
  const RegId reg = kernel.memory().alloc("r");
  for (int p = 0; p < kProcesses; ++p) {
    kernel.add_process(
        [reg](Context& ctx) {
          const std::uint64_t ops = ctx.uniform_below(4);
          for (std::uint64_t i = 0; i < ops; ++i) {
            if (ctx.flip() != 0) {
              ctx.write(reg, i);
            } else {
              ctx.read(reg);
            }
          }
        },
        prng(100 + static_cast<std::uint64_t>(p)));
  }
  support::PrngSource driver(2012);
  const auto expect_exact = [&kernel](const char* after) {
    ASSERT_EQ(kernel.runnable_pids_cached(), kernel.runnable_pids()) << after;
  };

  for (int cycle = 0; cycle < 4; ++cycle) {
    if (cycle > 0) {
      kernel.rewind();
      expect_exact("rewind");
    }
    std::vector<bool> crashed_early(kProcesses, false);
    for (int p = 0; p < kProcesses; ++p) {
      if (driver.draw(4) == 0) {
        kernel.crash(p);
        crashed_early[static_cast<std::size_t>(p)] = true;
        expect_exact("crash before start");
      }
    }
    kernel.start();
    expect_exact("start");
    for (int p = 0; p < kProcesses; ++p) {
      if (crashed_early[static_cast<std::size_t>(p)]) {
        EXPECT_EQ(kernel.state(p), SimProcess::State::kCrashed);
        EXPECT_EQ(kernel.steps(p), 0u);
      }
    }
    while (!kernel.runnable_pids().empty()) {
      const std::vector<int> live = kernel.runnable_pids();
      const int pid = live[driver.draw(live.size())];
      switch (driver.draw(8)) {
        case 0:
          kernel.crash(pid);
          expect_exact("crash");
          break;
        case 1:
          // Any pid, finished and crashed ones included (lenient no-op).
          kernel.abort_request(static_cast<int>(driver.draw(kProcesses)));
          expect_exact("abort_request");
          break;
        default:
          kernel.grant(pid);
          expect_exact("grant");
          break;
      }
    }
    EXPECT_TRUE(kernel.all_done());
  }
}

// --- Adversary view filtering -------------------------------------------

class ViewProbe {
 public:
  Kernel kernel;
  RegId reg;

  explicit ViewProbe(OpTags tags) {
    reg = kernel.memory().alloc("r");
    kernel.add_process(
        [this, tags](Context& ctx) { ctx.write(reg, 42, tags); },
        std::make_unique<support::PrngSource>(1));
    kernel.start();
  }
};

TEST(AdversaryView, ObliviousSeesNothing) {
  ViewProbe probe(OpTags{});
  KernelView view(probe.kernel, AdversaryClass::kOblivious);
  const PendingOpView p = view.pending(0);
  EXPECT_FALSE(p.kind.has_value());
  EXPECT_FALSE(p.reg.has_value());
  EXPECT_FALSE(p.value.has_value());
}

TEST(AdversaryView, AdaptiveSeesEverything) {
  OpTags tags;
  tags.random_location = true;
  tags.random_kind = true;
  ViewProbe probe(tags);
  KernelView view(probe.kernel, AdversaryClass::kAdaptive);
  const PendingOpView p = view.pending(0);
  ASSERT_TRUE(p.kind.has_value());
  EXPECT_EQ(*p.kind, OpKind::kWrite);
  ASSERT_TRUE(p.reg.has_value());
  EXPECT_EQ(*p.reg, probe.reg);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_EQ(*p.value, 42u);
}

TEST(AdversaryView, LocationObliviousHidesRandomLocation) {
  OpTags tags;
  tags.random_location = true;
  ViewProbe probe(tags);
  KernelView view(probe.kernel, AdversaryClass::kLocationOblivious);
  const PendingOpView p = view.pending(0);
  ASSERT_TRUE(p.kind.has_value()) << "kind/argument stay visible";
  EXPECT_EQ(*p.kind, OpKind::kWrite);
  EXPECT_EQ(*p.value, 42u);
  EXPECT_FALSE(p.reg.has_value()) << "randomly chosen register is hidden";
}

TEST(AdversaryView, LocationObliviousSeesDeterministicLocation) {
  ViewProbe probe(OpTags{});
  KernelView view(probe.kernel, AdversaryClass::kLocationOblivious);
  EXPECT_TRUE(view.pending(0).reg.has_value());
}

TEST(AdversaryView, RWObliviousHidesRandomKind) {
  OpTags tags;
  tags.random_kind = true;
  ViewProbe probe(tags);
  KernelView view(probe.kernel, AdversaryClass::kRWOblivious);
  const PendingOpView p = view.pending(0);
  EXPECT_TRUE(p.reg.has_value()) << "location stays visible";
  EXPECT_FALSE(p.kind.has_value()) << "read-vs-write is hidden";
  EXPECT_FALSE(p.value.has_value()) << "the value would reveal a write";
}

TEST(AdversaryView, KernelLessViewReadsTheEngineState) {
  // The batch engine's view: its own runnable set and counters, no kernel.
  const std::vector<int> runnable = {1, 3};
  const std::vector<std::uint64_t> steps = {5, 2, 0, 7};
  std::uint64_t total = 14;
  const KernelView view(runnable, steps, total);
  EXPECT_EQ(view.clazz(), AdversaryClass::kOblivious);
  EXPECT_EQ(view.num_processes(), 4);
  for (int pid = 0; pid < 4; ++pid) {
    EXPECT_EQ(view.steps(pid), steps[static_cast<std::size_t>(pid)]) << pid;
    EXPECT_EQ(view.is_runnable(pid), pid == 1 || pid == 3) << pid;
  }
  EXPECT_EQ(view.total_steps(), 14u);
  total = 15;  // the view reads the counter, it does not copy it
  EXPECT_EQ(view.total_steps(), 15u);
  EXPECT_EQ(&view.runnable(), &runnable);
  const PendingOpView p = view.pending(3);
  EXPECT_EQ(p.pid, 3);
  EXPECT_FALSE(p.kind.has_value());
  EXPECT_FALSE(p.reg.has_value());
  EXPECT_FALSE(p.value.has_value());
}

// --- Concrete adversaries -------------------------------------------------

TEST(Adversaries, FixedScheduleSkipsFinished) {
  Kernel kernel;
  const RegId reg = kernel.memory().alloc("r");
  for (int p = 0; p < 2; ++p) {
    kernel.add_process([&, p](Context& ctx) { ctx.write(reg, 1 + p); },
                       prng(p));
  }
  // Process 0 appears twice but finishes after one op; the extra entry is
  // skipped per the oblivious-schedule convention.
  FixedScheduleAdversary adversary({0, 0, 1});
  ASSERT_TRUE(kernel.run(adversary));
  EXPECT_EQ(kernel.memory().slot(reg).value, 2u);
}

TEST(Adversaries, CrashInjectionRespectsBudget) {
  Kernel kernel;
  const RegId reg = kernel.memory().alloc("r");
  for (int p = 0; p < 4; ++p) {
    kernel.add_process(
        [&](Context& ctx) {
          for (int i = 0; i < 5; ++i) ctx.read(reg);
        },
        prng(p));
  }
  RoundRobinAdversary inner;
  CrashInjectingAdversary adversary(inner, /*seed=*/7, /*crash_prob=*/1.0,
                                    /*max_crashes=*/2);
  ASSERT_TRUE(kernel.run(adversary));
  EXPECT_EQ(adversary.crashes_injected(), 2);
  int crashed = 0;
  for (int p = 0; p < 4; ++p) {
    if (kernel.state(p) == SimProcess::State::kCrashed) ++crashed;
  }
  EXPECT_EQ(crashed, 2);
}

// --- Runner ---------------------------------------------------------------

sim::LeBuilder trivial_le_builder() {
  // A (deliberately unsafe under asynchrony-free reasoning but fine for the
  // runner plumbing test) "first writer wins" object.
  return [](Kernel& kernel, int) -> BuiltLe {
    const RegId flag = kernel.memory().alloc("flag");
    BuiltLe built;
    built.declared_registers = 1;
    built.elect = [flag](Context& ctx) {
      if (ctx.read(flag) != 0) return Outcome::kLose;
      ctx.write(flag, 1);
      return Outcome::kWin;
    };
    return built;
  };
}

TEST(Runner, SequentialAdversaryYieldsOneWinner) {
  SequentialAdversary adversary;
  const LeRunResult r =
      run_le_once(trivial_le_builder(), /*n=*/4, /*k=*/4, adversary, 1);
  EXPECT_EQ(r.winners, 1);
  EXPECT_EQ(r.losers, 3);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_TRUE(r.crash_free);
  EXPECT_EQ(r.regs_allocated, 1u);
}

TEST(Runner, DetectsMultiWinnerViolation) {
  // Under round-robin the naive object elects everyone: all read 0 first.
  RoundRobinAdversary adversary;
  const LeRunResult r =
      run_le_once(trivial_le_builder(), /*n=*/3, /*k=*/3, adversary, 1);
  EXPECT_EQ(r.winners, 3);
  ASSERT_FALSE(r.violations.empty());
}

TEST(Runner, DeterministicGivenSeedAndAdversary) {
  auto run = [](std::uint64_t seed) {
    UniformRandomAdversary adversary(seed);
    return run_le_once(trivial_le_builder(), 8, 8, adversary, seed);
  };
  const LeRunResult a = run(5);
  const LeRunResult b = run(5);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_steps, b.total_steps);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i], b.outcomes[i]);
  }
}

TEST(Runner, AggregateCollectsTrials) {
  const LeAggregate agg = run_le_many(
      trivial_le_builder(), 4, 4,
      [](std::uint64_t seed) {
        return std::make_unique<UniformRandomAdversary>(seed);
      },
      /*trials=*/20, /*seed0=*/3);
  EXPECT_EQ(agg.runs, 20);
  EXPECT_EQ(agg.max_steps.count(), 20u);
  EXPECT_GT(agg.max_steps.mean(), 0.0);
}

}  // namespace
}  // namespace rts::sim
