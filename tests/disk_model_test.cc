#include "io/disk_model.h"

#include <gtest/gtest.h>

#include "io/machine_model.h"

namespace sj {
namespace {

TEST(MachineModel, Table1Values) {
  const MachineModel m1 = MachineModel::Machine1();
  EXPECT_DOUBLE_EQ(m1.avg_access_ms, 8.0);
  EXPECT_DOUBLE_EQ(m1.transfer_mb_per_s, 10.0);
  EXPECT_DOUBLE_EQ(m1.disk_buffer_kb, 512);
  const MachineModel m2 = MachineModel::Machine2();
  EXPECT_DOUBLE_EQ(m2.avg_access_ms, 12.5);
  EXPECT_DOUBLE_EQ(m2.transfer_mb_per_s, 33.3);
  EXPECT_DOUBLE_EQ(m2.disk_buffer_kb, 128);
  const MachineModel m3 = MachineModel::Machine3();
  EXPECT_DOUBLE_EQ(m3.avg_access_ms, 7.7);
  EXPECT_DOUBLE_EQ(m3.transfer_mb_per_s, 40.0);
  // CPU slowdowns mirror the MHz ladder: M1 slowest by far.
  EXPECT_GT(m1.cpu_slowdown, m2.cpu_slowdown);
  EXPECT_GT(m2.cpu_slowdown, m3.cpu_slowdown);
}

TEST(MachineModel, RandomToSequentialRatioNearPaperRuleOfThumb) {
  // The paper's §6.3 assumes a random read costs ~10x a sequential read;
  // that is Machine 1's disk.
  const double ratio =
      MachineModel::Machine1().RandomToSequentialReadRatio(kPageSize);
  EXPECT_GT(ratio, 9.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(DiskModel, StreamCapacityFollowsBufferSize) {
  EXPECT_EQ(DiskModel(MachineModel::Machine1()).stream_capacity(), 8u);
  EXPECT_EQ(DiskModel(MachineModel::Machine2()).stream_capacity(), 2u);
  EXPECT_EQ(DiskModel(MachineModel::Machine3()).stream_capacity(), 8u);
}

TEST(DiskModel, FirstAccessIsRandomThenSequential) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Read(dev, 0, 1);
  disk.Read(dev, 1, 1);
  disk.Read(dev, 2, 1);
  EXPECT_EQ(disk.stats().read_requests, 3u);
  EXPECT_EQ(disk.stats().random_read_requests, 1u);
  EXPECT_EQ(disk.stats().sequential_read_requests, 2u);
  EXPECT_EQ(disk.stats().pages_read, 3u);
}

TEST(DiskModel, ForwardSkipsHitReadAheadOtherJumpsDoNot) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Read(dev, 0, 1);    // Random (cold).
  disk.Read(dev, 3, 1);    // Within the 64 KB forward read-ahead: cached.
  disk.Read(dev, 1, 1);    // Backward jump: not retained -> random.
  disk.Read(dev, 1000, 1); // Far forward jump: random.
  EXPECT_EQ(disk.stats().random_read_requests, 3u);
  EXPECT_EQ(disk.stats().sequential_read_requests, 1u);
}

TEST(DiskModel, InterleavedStreamsStaySequential) {
  // The §6.2 mechanism: the drive's segmented cache keeps read-ahead state
  // for several concurrent streams, so ST's alternating tree-A/tree-B leaf
  // runs are serviced at streaming rate.
  DiskModel disk(MachineModel::Machine3());  // 8 segments.
  const uint32_t a = disk.RegisterDevice("a");
  const uint32_t b = disk.RegisterDevice("b");
  for (uint64_t i = 0; i < 50; ++i) {
    disk.Read(a, i, 1);
    disk.Read(b, i, 1);
  }
  // Only the two cold starts are random.
  EXPECT_EQ(disk.stats().random_read_requests, 2u);
  EXPECT_EQ(disk.stats().sequential_read_requests, 98u);
}

TEST(DiskModel, SmallBufferCannotTrackManyStreams) {
  // Machine 2's 128 KB buffer (2 segments) thrashes on 3 interleaved
  // streams — the paper's explanation for ST losing its advantage there.
  DiskModel disk(MachineModel::Machine2());
  const uint32_t a = disk.RegisterDevice("a");
  const uint32_t b = disk.RegisterDevice("b");
  const uint32_t c = disk.RegisterDevice("c");
  for (uint64_t i = 0; i < 50; ++i) {
    disk.Read(a, i, 1);
    disk.Read(b, i, 1);
    disk.Read(c, i, 1);
  }
  // LRU eviction destroys every stream before it is continued.
  EXPECT_EQ(disk.stats().sequential_read_requests, 0u);

  // The same pattern on Machine 3 (8 segments) is almost all sequential.
  DiskModel big(MachineModel::Machine3());
  const uint32_t a2 = big.RegisterDevice("a");
  const uint32_t b2 = big.RegisterDevice("b");
  const uint32_t c2 = big.RegisterDevice("c");
  for (uint64_t i = 0; i < 50; ++i) {
    big.Read(a2, i, 1);
    big.Read(b2, i, 1);
    big.Read(c2, i, 1);
  }
  EXPECT_EQ(big.stats().random_read_requests, 3u);
}

TEST(DiskModel, ReadAndWriteStreamsAreIndependent) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Write(dev, 0, 1);
  disk.Read(dev, 1, 1);   // Not a continuation of the write stream.
  EXPECT_EQ(disk.stats().random_read_requests, 1u);
  disk.Write(dev, 1, 1);  // Continues the write stream.
  EXPECT_EQ(disk.stats().sequential_write_requests, 1u);
}

TEST(DiskModel, SequentialCostIsTransferOnly) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Read(dev, 0, 1);
  const double t_first = disk.stats().io_seconds;
  disk.Read(dev, 1, 1);
  const double t_second = disk.stats().io_seconds - t_first;
  // 8 KB at 10 MB/s = 0.8192 ms.
  EXPECT_NEAR(t_second, 8192.0 / 10e6, 1e-9);
  // Random access adds the 8 ms positioning cost.
  EXPECT_NEAR(t_first, 8e-3 + 8192.0 / 10e6, 1e-9);
}

TEST(DiskModel, MultiPageRequestPaysPositioningOnce) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Read(dev, 10, 64);  // A 512 KB streaming block.
  EXPECT_EQ(disk.stats().read_requests, 1u);
  EXPECT_EQ(disk.stats().pages_read, 64u);
  EXPECT_NEAR(disk.stats().io_seconds, 8e-3 + 64 * 8192.0 / 10e6, 1e-9);
  // The next block continues the stream.
  disk.Read(dev, 74, 64);
  EXPECT_EQ(disk.stats().sequential_read_requests, 1u);
}

TEST(DiskModel, WritesCostWriteFactor) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Write(dev, 0, 1);
  disk.Write(dev, 1, 1);  // Sequential write.
  const double seq_write = disk.stats().io_seconds - (8e-3 + 1.5 * 8192.0 / 10e6);
  EXPECT_NEAR(seq_write, 1.5 * 8192.0 / 10e6, 1e-9);
}

TEST(DiskModel, PerDeviceAttribution) {
  DiskModel disk(MachineModel::Machine3());
  const uint32_t a = disk.RegisterDevice("a");
  const uint32_t b = disk.RegisterDevice("b");
  disk.Read(a, 0, 3);
  disk.Write(b, 0, 2);
  EXPECT_EQ(disk.device_stats()[a].pages_read, 3u);
  EXPECT_EQ(disk.device_stats()[a].pages_written, 0u);
  EXPECT_EQ(disk.device_stats()[b].pages_written, 2u);
  EXPECT_EQ(disk.device_stats()[b].name, "b");
}

TEST(DiskModel, ResetClearsStatsButKeepsStreams) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Read(dev, 0, 1);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().read_requests, 0u);
  EXPECT_EQ(disk.stats().io_seconds, 0.0);
  // The read-ahead stream survives, so page 1 reads sequentially.
  disk.Read(dev, 1, 1);
  EXPECT_EQ(disk.stats().sequential_read_requests, 1u);
}

TEST(DiskModel, AbsorbAddsCountersAndLeavesStreamsAlone) {
  // A shard's counters fold into the aggregate; the model's own stream
  // state, LRU clock and device counters do not move, so the request
  // after the fold prices exactly as on a model that never absorbed.
  DiskModel shard(MachineModel::Machine2());
  const uint32_t s = shard.RegisterDevice("shard");
  shard.Read(s, 0, 4);
  shard.Write(s, 0, 2);
  DiskModel disk(MachineModel::Machine2()), twin(MachineModel::Machine2());
  for (DiskModel* d : {&disk, &twin}) {
    const uint32_t x = d->RegisterDevice("x");
    const uint32_t y = d->RegisterDevice("y");
    d->Read(x, 0, 1);  // Machine 2 tracks two streams: x, then y.
    d->Read(y, 0, 1);
  }
  disk.Absorb(shard.stats());
  const DiskStats folded = disk.stats() - twin.stats();
  EXPECT_EQ(folded.read_requests, 1u);
  EXPECT_EQ(folded.random_read_requests, 1u);
  EXPECT_EQ(folded.write_requests, 1u);
  EXPECT_EQ(folded.pages_read, 4u);
  EXPECT_EQ(folded.pages_written, 2u);
  EXPECT_NEAR(folded.io_seconds, shard.stats().io_seconds, 1e-12);
  EXPECT_EQ(disk.device_stats().size(), 2u);
  EXPECT_EQ(disk.device_stats()[0].pages_read, 1u);
  for (DiskModel* d : {&disk, &twin}) {
    const DiskStats before = d->stats();
    d->Read(0, 1, 1);  // Still the continuation of stream x.
    d->Read(1, 1, 1);  // And of stream y: nothing was evicted.
    const DiskStats after = d->stats() - before;
    EXPECT_EQ(after.sequential_read_requests, 2u);
  }
}

TEST(DiskStats, DeltaSubtraction) {
  DiskModel disk(MachineModel::Machine1());
  const uint32_t dev = disk.RegisterDevice("f");
  disk.Read(dev, 0, 1);
  const DiskStats before = disk.stats();
  disk.Read(dev, 1, 1);
  disk.Write(dev, 5, 2);
  const DiskStats delta = disk.stats() - before;
  EXPECT_EQ(delta.read_requests, 1u);
  EXPECT_EQ(delta.pages_written, 2u);
  EXPECT_GT(delta.io_seconds, 0.0);
}

}  // namespace
}  // namespace sj
