// Unit suite for the per-query memory governor: grant accounting, RAII
// release, over-subscription denial, shrinkable grants with floors,
// high-water marks, child-scope folding, and the strict-mode abort on
// ungoverned allocation.

#include "core/memory_arbiter.h"

#include <gtest/gtest.h>

#include <utility>

namespace sj {
namespace {

TEST(MemoryArbiter, GrantAccounting) {
  MemoryArbiter arbiter(1000);
  EXPECT_EQ(arbiter.budget(), 1000u);
  EXPECT_EQ(arbiter.in_use(), 0u);
  EXPECT_EQ(arbiter.available(), 1000u);

  auto a = arbiter.Acquire("sort.runs", 400);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->bytes(), 400u);
  EXPECT_EQ(a->component(), "sort.runs");
  EXPECT_EQ(arbiter.in_use(), 400u);
  EXPECT_EQ(arbiter.available(), 600u);

  auto b = arbiter.Acquire("sweep", 600);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(arbiter.in_use(), 1000u);
  EXPECT_EQ(arbiter.available(), 0u);
  EXPECT_EQ(arbiter.peak_bytes(), 1000u);
}

TEST(MemoryArbiter, OverSubscriptionIsDenied) {
  MemoryArbiter arbiter(1000);
  auto a = arbiter.Acquire("sort.runs", 900);
  ASSERT_TRUE(a.ok());
  auto b = arbiter.Acquire("sweep", 200);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
  // The message names the component, the request, and what remains.
  EXPECT_NE(b.status().message().find("sweep"), std::string::npos);
  EXPECT_NE(b.status().message().find("100"), std::string::npos);
  // The denial had no side effects.
  EXPECT_EQ(arbiter.in_use(), 900u);
}

TEST(MemoryArbiter, RaiiReleaseReturnsBytes) {
  MemoryArbiter arbiter(1000);
  {
    auto grant = arbiter.Acquire("sweep", 700);
    ASSERT_TRUE(grant.ok());
    EXPECT_EQ(arbiter.in_use(), 700u);
  }
  EXPECT_EQ(arbiter.in_use(), 0u);
  // Peak survives the release.
  EXPECT_EQ(arbiter.peak_bytes(), 700u);
  // The freed bytes are grantable again.
  EXPECT_TRUE(arbiter.Acquire("sort.runs", 1000).ok());
}

TEST(MemoryArbiter, MoveTransfersOwnership) {
  MemoryArbiter arbiter(1000);
  auto a = arbiter.Acquire("sweep", 300);
  ASSERT_TRUE(a.ok());
  MemoryGrant moved = std::move(*a);
  EXPECT_FALSE(a->active());
  EXPECT_TRUE(moved.active());
  EXPECT_EQ(arbiter.in_use(), 300u);
  moved.Release();
  EXPECT_EQ(arbiter.in_use(), 0u);
  moved.Release();  // Idempotent.
  EXPECT_EQ(arbiter.in_use(), 0u);
}

TEST(MemoryArbiter, ShrinkableGrantClampsToAvailability) {
  MemoryArbiter arbiter(1000);
  auto big = arbiter.Acquire("sort.runs", 800);
  ASSERT_TRUE(big.ok());
  // Only 200 left: the request shrinks to it.
  MemoryGrant shrunk = arbiter.AcquireShrinkable("sweep", 500, 50);
  EXPECT_EQ(shrunk.bytes(), 200u);
  // Nothing left at all: the floor still grants (progress minimum).
  MemoryGrant floored = arbiter.AcquireShrinkable("pool", 500, 50);
  EXPECT_EQ(floored.bytes(), 50u);
  // A request below the floor is honored as-is, never inflated.
  MemoryGrant tiny = arbiter.AcquireShrinkable("pool", 30, 50);
  EXPECT_EQ(tiny.bytes(), 30u);
}

TEST(MemoryArbiter, TryGrow) {
  MemoryArbiter arbiter(1000);
  MemoryGrant grant = arbiter.AcquireShrinkable("op.rectmap", 400, 0);
  EXPECT_TRUE(grant.TryGrow(900));
  EXPECT_EQ(grant.bytes(), 900u);
  EXPECT_FALSE(grant.TryGrow(1100));  // Over budget: refused, unchanged.
  EXPECT_EQ(grant.bytes(), 900u);
  EXPECT_EQ(arbiter.available(), 100u);
  // The grown grant is the component's high-water mark.
  EXPECT_EQ(arbiter.ComponentStats()[0].granted_high_water, 900u);
}

TEST(MemoryArbiter, HighWaterMarksPerComponent) {
  MemoryArbiter arbiter(1000);
  {
    auto grant = arbiter.Acquire("sweep", 600);
    ASSERT_TRUE(grant.ok());
    grant->NoteUsage(250);
    grant->NoteUsage(475);
    grant->NoteUsage(100);  // High water keeps the max.
  }
  auto again = arbiter.Acquire("sweep", 300);
  ASSERT_TRUE(again.ok());
  const auto components = arbiter.ComponentStats();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].component, "sweep");
  EXPECT_EQ(components[0].granted_high_water, 600u);
  EXPECT_EQ(components[0].used_high_water, 475u);
}

TEST(MemoryArbiter, NonStrictRecordsOvershootInsteadOfAborting) {
  MemoryArbiter arbiter(1000, /*strict=*/false);
  auto grant = arbiter.Acquire("sweep", 100);
  ASSERT_TRUE(grant.ok());
  grant->NoteUsage(5000);  // Ungoverned growth: recorded, not fatal.
  EXPECT_EQ(arbiter.ComponentStats()[0].used_high_water, 5000u);
  // The *granted* peak never exceeds the budget.
  EXPECT_LE(arbiter.peak_bytes(), arbiter.budget());
}

TEST(MemoryArbiterDeathTest, StrictAbortsOnUsageAboveGrant) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MemoryArbiter arbiter(1000, /*strict=*/true);
        auto grant = arbiter.Acquire("sweep", 100);
        grant->NoteUsage(101);
      },
      "ungoverned allocation");
}

TEST(MemoryArbiter, FoldChildTakesMaxAcrossWorkUnits) {
  // The parallel engine's serial-equivalent model: each work unit runs
  // against its own arbiter; folding takes the max, so the result is
  // independent of fold order (and with it, of the thread count).
  MemoryArbiter parent(10000);
  auto live = parent.Acquire("pbsm.writers", 1000);
  ASSERT_TRUE(live.ok());

  MemoryArbiter child1(10000), child2(10000);
  { MemoryGrant g = child1.AcquireShrinkable("pbsm.partition", 3000, 0); }
  {
    MemoryGrant g = child2.AcquireShrinkable("pbsm.partition", 7000, 0);
    g.NoteUsage(6500);
  }
  parent.FoldChild(child2);
  parent.FoldChild(child1);
  // Peak: grants live at fold time plus the heaviest child.
  EXPECT_EQ(parent.peak_bytes(), 8000u);
  bool found = false;
  for (const auto& c : parent.ComponentStats()) {
    if (c.component == "pbsm.partition") {
      EXPECT_EQ(c.granted_high_water, 7000u);
      EXPECT_EQ(c.used_high_water, 6500u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MemoryPlan, GrantLookupAndDescribe) {
  MemoryPlan plan;
  plan.budget_bytes = 24u << 20;
  plan.grants.push_back({grants::kSortRuns, 12u << 20});
  plan.grants.push_back({grants::kSweep, 64u << 10});
  EXPECT_EQ(plan.GrantFor(grants::kSortRuns), 12u << 20);
  EXPECT_EQ(plan.GrantFor(grants::kSweep), 64u << 10);
  EXPECT_EQ(plan.GrantFor("nonexistent"), 0u);
  const std::string described = plan.Describe();
  EXPECT_NE(described.find("sort.runs"), std::string::npos);
  EXPECT_NE(described.find("sweep"), std::string::npos);
  EXPECT_NE(described.find("budget"), std::string::npos);
}

}  // namespace
}  // namespace sj
