// Tests for the ucontext fiber substrate: symmetric switching, completion
// routing, nesting (fiber switching into fiber), bulk creation, and the
// cache-colored stack tops.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fiber/fiber.hpp"
#include "fiber/stack.hpp"

namespace rts::fiber {
namespace {

TEST(Stack, AllocatesUsableMemory) {
  MmapStack stack(64 * 1024);
  ASSERT_NE(stack.base(), nullptr);
  EXPECT_GE(stack.size(), 64u * 1024u);
  // Touch the full usable range; the guard page is below base().
  auto* bytes = static_cast<char*>(stack.base());
  bytes[0] = 1;
  bytes[stack.size() - 1] = 2;
  EXPECT_EQ(bytes[0], 1);
}

TEST(Stack, MoveTransfersOwnership) {
  MmapStack a(16 * 1024);
  void* base = a.base();
  MmapStack b(std::move(a));
  EXPECT_EQ(b.base(), base);
  EXPECT_EQ(a.base(), nullptr);  // NOLINT(bugprone-use-after-move): asserted
}

constexpr std::size_t kPooledStackBytes = 16 * 1024;

/// Recurses in small frames, touching each frame's locals, until a frame
/// sits at or below `floor`; returns the lowest frame address reached.
[[gnu::noinline]] const char* descend_to(const char* floor) {
  volatile char locals[64] = {};
  locals[63] = 1;
  const auto* frame = static_cast<const char*>(__builtin_frame_address(0));
  const char* lowest = frame > floor ? descend_to(floor) : frame;
  locals[0] = locals[63];  // keeps this frame live across the call
  return lowest;
}

TEST(Stack, ColoredTopsSpreadOverTwoKilobytes) {
  std::vector<MmapStack> stacks;
  std::set<std::size_t> offsets;
  for (int i = 0; i < 64; ++i) {
    stacks.push_back(acquire_stack(kPooledStackBytes));
    const MmapStack& stack = stacks.back();
    const char* top = static_cast<const char*>(stack.base()) + stack.size();
    const char* colored = stack.colored_top();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(colored) % 16, 0u);
    ASSERT_LE(colored, top);
    const auto offset = static_cast<std::size_t>(top - colored);
    EXPECT_LT(offset, 2048u);
    offsets.insert(offset);
  }
  // Stacks mapped in a row step through all 32 colors.
  EXPECT_GE(offsets.size(), 32u);

  // Every color leaves the rest of the stack usable: a fiber descends from
  // its colored top through size() - 2048 - 512 bytes, to within 512 B of
  // the base, without touching the guard page.
  ExecutionContext main_ctx;
  for (MmapStack& stack : stacks) {
    const char* floor = static_cast<const char*>(stack.base()) + 512;
    const char* lowest = nullptr;
    Fiber fib([&] { lowest = descend_to(floor); }, &stack);
    fib.set_return_to(&main_ctx);
    switch_context(main_ctx, fib);
    ASSERT_TRUE(fib.finished());
    EXPECT_GE(static_cast<std::size_t>(stack.colored_top() - lowest),
              stack.size() - 2048 - 512);
  }
  for (MmapStack& stack : stacks) release_stack(std::move(stack));
}

TEST(Fiber, PingPong) {
  ExecutionContext main_ctx;
  std::vector<std::string> log;
  Fiber* fib_ptr = nullptr;
  Fiber fib([&] {
    log.push_back("in-1");
    switch_context(*fib_ptr, main_ctx);
    log.push_back("in-2");
  });
  fib_ptr = &fib;
  fib.set_return_to(&main_ctx);

  log.push_back("out-1");
  switch_context(main_ctx, fib);  // runs until fiber yields
  log.push_back("out-2");
  switch_context(main_ctx, fib);  // fiber finishes
  log.push_back("out-3");

  EXPECT_TRUE(fib.finished());
  const std::vector<std::string> expected = {"out-1", "in-1", "out-2", "in-2",
                                             "out-3"};
  EXPECT_EQ(log, expected);
}

TEST(Fiber, CompletionRoutesToReturnContext) {
  ExecutionContext main_ctx;
  int value = 0;
  Fiber fib([&] { value = 42; });
  fib.set_return_to(&main_ctx);
  switch_context(main_ctx, fib);
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(fib.finished());
}

TEST(Fiber, NestedFiberSwitches) {
  // parent fiber spawns a child fiber; control weaves
  // main -> parent -> child -> parent -> main.
  ExecutionContext main_ctx;
  std::vector<int> order;

  Fiber* parent_ptr = nullptr;
  Fiber parent([&] {
    order.push_back(1);
    Fiber* child_ptr = nullptr;
    Fiber child([&] {
      order.push_back(2);
      switch_context(*child_ptr, *parent_ptr);  // yield to parent
      order.push_back(4);
    });
    child_ptr = &child;
    child.set_return_to(parent_ptr);
    switch_context(*parent_ptr, child);
    order.push_back(3);
    switch_context(*parent_ptr, child);  // let child finish
    order.push_back(5);
  });
  parent_ptr = &parent;
  parent.set_return_to(&main_ctx);

  switch_context(main_ctx, parent);
  EXPECT_TRUE(parent.finished());
  const std::vector<int> expected = {1, 2, 3, 4, 5};
  EXPECT_EQ(order, expected);
}

TEST(Fiber, ManyFibersRoundRobin) {
  constexpr int kFibers = 200;
  constexpr int kRounds = 10;
  ExecutionContext main_ctx;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> counters(kFibers, 0);
  fibers.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(nullptr);  // placeholder for index stability
  }
  for (int i = 0; i < kFibers; ++i) {
    fibers[i] = std::make_unique<Fiber>([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counters[i];
        switch_context(*fibers[i], main_ctx);
      }
    });
    fibers[i]->set_return_to(&main_ctx);
  }
  for (int r = 0; r <= kRounds; ++r) {
    for (int i = 0; i < kFibers; ++i) {
      if (!fibers[i]->finished()) switch_context(main_ctx, *fibers[i]);
    }
  }
  for (int i = 0; i < kFibers; ++i) {
    EXPECT_TRUE(fibers[i]->finished());
    EXPECT_EQ(counters[i], kRounds);
  }
}

TEST(Fiber, RewindReplaysFromTheEntryPoint) {
  ExecutionContext main_ctx;
  int runs = 0;
  Fiber fib([&] { ++runs; });
  fib.set_return_to(&main_ctx);
  switch_context(main_ctx, fib);
  EXPECT_TRUE(fib.finished());
  fib.rewind();
  EXPECT_FALSE(fib.finished());
  switch_context(main_ctx, fib);
  EXPECT_TRUE(fib.finished());
  EXPECT_EQ(runs, 2);
}

TEST(Fiber, RewindRecoversAnAbandonedFiber) {
  // A fiber suspended mid-run (the shape a starved simulated process leaves
  // behind) rewinds to a fresh first activation.
  ExecutionContext main_ctx;
  Fiber* fib_ptr = nullptr;
  int phase1 = 0;
  int phase2 = 0;
  Fiber fib([&] {
    ++phase1;
    switch_context(*fib_ptr, main_ctx);
    ++phase2;
  });
  fib_ptr = &fib;
  fib.set_return_to(&main_ctx);
  switch_context(main_ctx, fib);  // runs phase1, suspends
  EXPECT_EQ(phase1, 1);
  fib.rewind();                   // abandon the suspended frame
  switch_context(main_ctx, fib);  // phase1 again
  switch_context(main_ctx, fib);  // phase2, finishes
  EXPECT_TRUE(fib.finished());
  EXPECT_EQ(phase1, 2);
  EXPECT_EQ(phase2, 1);
}

TEST(Fiber, AdoptsACallerOwnedStack) {
  MmapStack stack(64 * 1024);
  void* base = stack.base();
  ExecutionContext main_ctx;
  int value = 0;
  Fiber fib([&] { value = 7; }, std::move(stack));
  fib.set_return_to(&main_ctx);
  switch_context(main_ctx, fib);
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(fib.finished());
  EXPECT_NE(base, nullptr);
}

TEST(Fiber, AbandonedFiberIsSafelyDestroyed) {
  ExecutionContext main_ctx;
  Fiber* fib_ptr = nullptr;
  {
    Fiber fib([&] {
      switch_context(*fib_ptr, main_ctx);
      ADD_FAILURE() << "abandoned fiber must never be resumed";
    });
    fib_ptr = &fib;
    fib.set_return_to(&main_ctx);
    switch_context(main_ctx, fib);
    EXPECT_FALSE(fib.finished());
    // fib goes out of scope while suspended: stack is released, no resume.
  }
  SUCCEED();
}

}  // namespace
}  // namespace rts::fiber
