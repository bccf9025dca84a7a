#include "io/stream.h"

#include <gtest/gtest.h>

#include "geometry/rect.h"
#include "io/pager.h"
#include "test_util.h"

namespace sj {
namespace {

struct StreamCase {
  uint64_t count;
  uint32_t block_pages;
};

class StreamRoundTrip : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamRoundTrip, RectRecords) {
  const auto [count, block_pages] = GetParam();
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "s");

  StreamWriter<RectF> writer(&pager, block_pages);
  const PageId first = writer.first_page();
  for (uint64_t i = 0; i < count; ++i) {
    writer.Append(RectF(static_cast<float>(i), static_cast<float>(i + 1),
                        static_cast<float>(i + 2), static_cast<float>(i + 3),
                        static_cast<ObjectId>(i)));
  }
  auto n = writer.Finish();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), count);

  StreamReader<RectF> reader(&pager, first, count, block_pages);
  for (uint64_t i = 0; i < count; ++i) {
    auto r = reader.Next();
    ASSERT_TRUE(r.has_value()) << "at record " << i;
    EXPECT_EQ(r->id, i);
    EXPECT_EQ(r->xlo, static_cast<float>(i));
  }
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.Done());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StreamRoundTrip,
    ::testing::Values(StreamCase{0, 4}, StreamCase{1, 4}, StreamCase{408, 4},
                      StreamCase{409, 4},  // Exactly one page.
                      StreamCase{410, 4},  // One page + 1 record.
                      StreamCase{409 * 4, 4},      // Exactly one block.
                      StreamCase{409 * 4 + 1, 4},  // Block + 1.
                      StreamCase{10000, 1}, StreamCase{10000, 64}));

TEST(Stream, RecordsPerPageMatchesPaperLayout) {
  // 8192 / 20 = 409 rectangles per page.
  EXPECT_EQ(StreamWriter<RectF>::kRecordsPerPage, 409u);
  EXPECT_EQ(StreamWriter<IdPair>::kRecordsPerPage, 1024u);
}

TEST(Stream, WriterChargesOneRequestPerBlock) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "s");
  StreamWriter<RectF> writer(&pager, /*block_pages=*/2);
  const uint32_t per_block = 409 * 2;
  for (uint32_t i = 0; i < per_block * 3; ++i) writer.Append(RectF());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(disk.stats().write_requests, 3u);
  // Blocks are adjacent: first write random, the rest sequential.
  EXPECT_EQ(disk.stats().sequential_write_requests, 2u);
}

TEST(Stream, SequentialScanReadsAreSequentialRequests) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "s");
  StreamWriter<RectF> writer(&pager, 2);
  for (uint32_t i = 0; i < 409 * 6; ++i) writer.Append(RectF());
  auto n = writer.Finish();
  ASSERT_TRUE(n.ok());
  disk.ResetStats();
  StreamReader<RectF> reader(&pager, 0, n.value(), 2);
  while (reader.Next().has_value()) {
  }
  EXPECT_EQ(disk.stats().read_requests, 3u);
  EXPECT_EQ(disk.stats().random_read_requests, 1u);  // Only the first.
}

TEST(Stream, TwoStreamsOnOnePagerDoNotOverlap) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "s");
  StreamWriter<IdPair> w1(&pager, 1);
  for (uint32_t i = 0; i < 2000; ++i) w1.Append({i, i});
  const PageId f1 = w1.first_page();
  ASSERT_TRUE(w1.Finish().ok());
  StreamWriter<IdPair> w2(&pager, 1);
  const PageId f2 = w2.first_page();
  for (uint32_t i = 0; i < 2000; ++i) w2.Append({i + 10000, i});
  ASSERT_TRUE(w2.Finish().ok());
  EXPECT_GE(f2, f1 + 2);  // w1 spans 2 pages.

  StreamReader<IdPair> r1(&pager, f1, 2000, 1);
  StreamReader<IdPair> r2(&pager, f2, 2000, 1);
  for (uint32_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(r1.Next()->a, i);
    EXPECT_EQ(r2.Next()->a, i + 10000);
  }
}

// A stream written to a backend whose reads then fail, read back by
// `read` with the backend's reads off.
template <typename Read>
void ReadWithReadsOff(uint64_t count, Read read) {
  DiskModel disk(MachineModel::Machine3());
  auto failing = std::make_unique<testing_util::FailingBackend>();
  testing_util::FailingBackend* faults = failing.get();
  Pager pager(std::move(failing), &disk, "s");
  StreamWriter<RectF> writer(&pager, /*block_pages=*/1);
  for (uint32_t i = 0; i < count; ++i) writer.Append(RectF(0, 0, 1, 1, i));
  ASSERT_TRUE(writer.Finish().ok());
  faults->fail_reads = true;
  StreamReader<RectF> reader(&pager, writer.first_page(), count,
                             /*block_pages=*/1);
  read(reader);
}

TEST(Stream, ReadErrorEndsTheStreamAndShowsInStatus) {
  ReadWithReadsOff(1000, [](StreamReader<RectF>& reader) {
    EXPECT_TRUE(reader.status().ok());  // Nothing read yet.
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_TRUE(reader.Done());
    EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  });
}

TEST(StreamDeathTest, UncheckedReadErrorAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A caller that never asks for status() must not mistake the truncated
  // stream for the whole: the reader aborts when it is destroyed.
  EXPECT_DEATH(ReadWithReadsOff(1000,
                                [](StreamReader<RectF>& reader) {
                                  while (reader.Next().has_value()) {
                                  }
                                }),
               "unchecked read error");
}

TEST(StreamDeathTest, WriterMustBeFinished) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DiskModel disk(MachineModel::Machine3());
        Pager pager(std::make_unique<MemoryBackend>(), &disk, "s");
        { StreamWriter<RectF> writer(&pager); }  // No Finish().
      },
      "Finish");
}

}  // namespace
}  // namespace sj
