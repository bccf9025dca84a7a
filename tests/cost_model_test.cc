#include "core/cost_model.h"

#include <gtest/gtest.h>

#include "refine/refine.h"

namespace sj {
namespace {

TEST(CostModel, BreakEvenNearPaperSixtyPercent) {
  // §6.3: "it is advantageous to use the index only when the join involves
  // less than 60% of the leaf nodes" — derived from random ~ 10x
  // sequential and SSSJ ~ 6 sequential passes.
  const CostModel model(MachineModel::Machine1());
  EXPECT_GT(model.IndexBreakEvenFraction(), 0.45);
  EXPECT_LT(model.IndexBreakEvenFraction(), 0.70);
}

TEST(CostModel, SSSJCostIsSixSequentialPasses) {
  const CostModel model(MachineModel::Machine1());
  const double seq_page =
      MachineModel::Machine1().PageTransferMs(kPageSize) * 1e-3;
  EXPECT_NEAR(model.SSSJSeconds(1000), 6.0 * 1000 * seq_page, 1e-9);
}

TEST(CostModel, GrantedMemoryPricingAddsMergePasses) {
  const CostModel model(MachineModel::Machine1());
  const uint64_t pages = 4000;  // ~32 MB of data.
  // A comfortable grant sorts in one merge pass: the memory-aware price
  // equals the classic six-pass estimate exactly.
  EXPECT_EQ(model.ExtraMergePasses(pages, 24u << 20), 0u);
  EXPECT_DOUBLE_EQ(model.SSSJSeconds(pages, 24u << 20),
                   model.SSSJSeconds(pages));
  // A tight grant needs extra merge passes, each one more read + write
  // pass over the data — strictly more expensive, monotonically so.
  EXPECT_GT(model.ExtraMergePasses(pages, 256u << 10), 0u);
  EXPECT_GT(model.SSSJSeconds(pages, 256u << 10), model.SSSJSeconds(pages));
  EXPECT_GE(model.SSSJSeconds(pages, 128u << 10),
            model.SSSJSeconds(pages, 1u << 20));
  // The pass count follows the fan-in arithmetic: cost rises by exactly
  // (1 + write_factor) sequential passes per extra merge pass.
  const double seq_page =
      MachineModel::Machine1().PageTransferMs(kPageSize) * 1e-3;
  const uint64_t extra = model.ExtraMergePasses(pages, 256u << 10);
  EXPECT_NEAR(model.SSSJSeconds(pages, 256u << 10),
              model.SSSJSeconds(pages) +
                  static_cast<double>(extra) *
                      (1.0 + MachineModel::Machine1().write_factor) *
                      static_cast<double>(pages) * seq_page,
              1e-9);
}

TEST(CostModel, StreamingPassFactorSharedByCostAndBreakEven) {
  // SSSJSeconds and IndexBreakEvenFraction must price the streaming plan
  // with the same pass count: the break-even rule is exactly "streaming
  // passes vs. the random/sequential read ratio". A drift between the two
  // would silently skew every indexed-vs-streamed planning decision.
  for (const MachineModel& m :
       {MachineModel::Machine1(), MachineModel::Machine2(),
        MachineModel::Machine3()}) {
    const CostModel model(m);
    EXPECT_DOUBLE_EQ(model.StreamingPassFactor(),
                     3.0 + 2.0 * m.write_factor)
        << m.name;
    const double seq_page = m.PageTransferMs(kPageSize) * 1e-3;
    EXPECT_NEAR(model.SSSJSeconds(1000),
                1000 * model.StreamingPassFactor() * seq_page, 1e-12)
        << m.name;
    EXPECT_NEAR(model.IndexBreakEvenFraction() *
                    m.RandomToSequentialReadRatio(kPageSize),
                model.StreamingPassFactor(), 1e-12)
        << m.name;
  }
}

TEST(CostModel, RefineSecondsBoundedByStoreScansAndCandidates) {
  const MachineModel m = MachineModel::Machine1();
  const CostModel model(m);
  const double rand_page =
      (m.avg_access_ms + m.PageTransferMs(kPageSize)) * 1e-3;
  // Few candidates against big stores: one page per candidate and side.
  EXPECT_NEAR(model.RefineSeconds(10, 1000, 1000, 1024), 20 * rand_page,
              1e-12);
  // Many candidates against small stores: chunks do not share fetches,
  // so the bound is one store scan per chunk and side — 98 chunks of
  // 1024 over stores of 50/80 pages.
  EXPECT_NEAR(model.RefineSeconds(100000, 50, 80, 1024),
              (98 * 50 + 98 * 80) * rand_page, 1e-9);
  // Larger chunks amortize the per-chunk re-reads.
  EXPECT_LT(model.RefineSeconds(100000, 50, 80, 4096),
            model.RefineSeconds(100000, 50, 80, 256));
  EXPECT_DOUBLE_EQ(model.RefineSeconds(0, 1000, 1000, 1024), 0.0);
  // The executor's chunk under the default 24 MiB budget holds all
  // 100,000 candidates, so each store is scanned at most once; at the
  // 64 KiB floor a chunk holds 135 and the stores are re-read per chunk.
  const uint64_t roomy = RefineChunkCandidates(RefineGrantBytes(24u << 20));
  const uint64_t tight = RefineChunkCandidates(RefineGrantBytes(64u << 10));
  EXPECT_EQ(tight, 135u);
  EXPECT_NEAR(model.RefineSeconds(100000, 50, 80, roomy), 130 * rand_page,
              1e-12);
  EXPECT_NEAR(model.RefineSeconds(100000, 50, 80, tight),
              (741 * 50 + 741 * 80) * rand_page, 1e-9);
}

TEST(CostModel, PQCostUsesRandomReads) {
  const MachineModel m = MachineModel::Machine1();
  const CostModel model(m);
  const double rand_page = (m.avg_access_ms + m.PageTransferMs(kPageSize)) * 1e-3;
  EXPECT_NEAR(model.PQSeconds(1000), 1000 * rand_page, 1e-9);
}

TEST(CostModel, FullTraversalNeverBeatsStreaming) {
  // Consequence of the paper's analysis: a PQ join that touches the whole
  // index (the common, non-localized case) costs more I/O than SSSJ.
  for (const MachineModel& m :
       {MachineModel::Machine1(), MachineModel::Machine2(),
        MachineModel::Machine3()}) {
    const CostModel model(m);
    EXPECT_GT(model.PQSeconds(10000), model.SSSJSeconds(10000))
        << m.name;
  }
}

TEST(CostModel, CrossoverIsMonotone) {
  const CostModel model(MachineModel::Machine3());
  const uint64_t n = 50000;
  double prev = -1.0;
  bool crossed = false;
  for (double f = 0.0; f <= 1.0; f += 0.05) {
    const double cost = model.PQSeconds(static_cast<uint64_t>(f * n));
    EXPECT_GE(cost, prev);
    prev = cost;
    if (cost > model.SSSJSeconds(n)) crossed = true;
  }
  EXPECT_TRUE(crossed);
}

}  // namespace
}  // namespace sj
