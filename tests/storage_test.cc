#include "io/storage.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "io/pager.h"
#include "io/stream.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::FailingBackend;

void FillPattern(uint8_t* buf, uint8_t seed) {
  for (size_t i = 0; i < kPageSize; ++i) {
    buf[i] = static_cast<uint8_t>(seed + i * 31);
  }
}

template <typename Backend>
void RoundTrip(Backend* backend) {
  uint8_t w[kPageSize], r[kPageSize];
  FillPattern(w, 7);
  ASSERT_TRUE(backend->WritePage(3, w).ok());
  ASSERT_TRUE(backend->ReadPage(3, r).ok());
  EXPECT_EQ(std::memcmp(w, r, kPageSize), 0);
  EXPECT_GE(backend->PageCount(), 4u);
}

TEST(MemoryBackend, RoundTrip) {
  MemoryBackend backend;
  RoundTrip(&backend);
}

TEST(MemoryBackend, UnwrittenPagesReadAsZero) {
  MemoryBackend backend;
  uint8_t w[kPageSize];
  FillPattern(w, 1);
  ASSERT_TRUE(backend.WritePage(5, w).ok());
  uint8_t r[kPageSize];
  std::memset(r, 0xAA, kPageSize);
  ASSERT_TRUE(backend.ReadPage(2, r).ok());  // Hole below the write.
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r[i], 0);
  ASSERT_TRUE(backend.ReadPage(100, r).ok());  // Past the end.
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r[i], 0);
}

// --- ViewPage: in place on memory, through the scratch page elsewhere --

TEST(MemoryBackend, ViewPageReadsInPlace) {
  MemoryBackend backend;
  uint8_t w[kPageSize];
  FillPattern(w, 5);
  ASSERT_TRUE(backend.WritePage(3, w).ok());
  uint8_t scratch[kPageSize];
  std::memset(scratch, 0xAA, kPageSize);
  Result<const uint8_t*> view = backend.ViewPage(3, scratch);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_NE(*view, scratch);
  EXPECT_EQ(std::memcmp(*view, w, kPageSize), 0);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(scratch[i], 0xAA);

  // Never-written pages, a hole below the write and one past the end,
  // view as zeros.
  for (uint64_t page : {uint64_t{1}, uint64_t{100}}) {
    Result<const uint8_t*> hole = backend.ViewPage(page, scratch);
    ASSERT_TRUE(hole.ok()) << page;
    for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ((*hole)[i], 0) << page;
  }

  // The view is the page itself until the backend dies: a later write of
  // the page shows through it.
  uint8_t rewrite[kPageSize];
  FillPattern(rewrite, 9);
  ASSERT_TRUE(backend.WritePage(3, rewrite).ok());
  EXPECT_EQ(std::memcmp(*view, rewrite, kPageSize), 0);
}

/// The default ViewPage: ReadPage fills `scratch`, which is returned.
void ViewsThroughScratch(StorageBackend* backend) {
  uint8_t w[kPageSize];
  FillPattern(w, 11);
  ASSERT_TRUE(backend->WritePage(2, w).ok());
  uint8_t scratch[kPageSize];
  std::memset(scratch, 0xAA, kPageSize);
  Result<const uint8_t*> view = backend->ViewPage(2, scratch);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(*view, scratch);
  EXPECT_EQ(std::memcmp(scratch, w, kPageSize), 0);
}

TEST(FileBackend, ViewPageReadsThroughScratch) {
  const std::string path = ::testing::TempDir() + "/usj_storage_view.bin";
  std::filesystem::remove(path);
  {
    std::unique_ptr<FileBackend> backend;
    ASSERT_TRUE(FileBackend::Open(path, &backend).ok());
    ViewsThroughScratch(backend.get());
  }
  std::filesystem::remove(path);
}

TEST(FailingBackend, ViewPageReadsThroughScratchAndFailsWithReads) {
  FailingBackend backend;
  ViewsThroughScratch(&backend);
  backend.fail_reads = true;
  uint8_t scratch[kPageSize];
  EXPECT_EQ(backend.ViewPage(2, scratch).status().code(),
            StatusCode::kIoError);
}

TEST(FileBackend, RoundTripAndReopen) {
  const std::string path = ::testing::TempDir() + "/usj_storage_test.bin";
  std::filesystem::remove(path);
  uint8_t w[kPageSize];
  FillPattern(w, 3);
  {
    std::unique_ptr<FileBackend> backend;
    ASSERT_TRUE(FileBackend::Open(path, &backend).ok());
    RoundTrip(backend.get());
    ASSERT_TRUE(backend->WritePage(0, w).ok());
  }
  // Reopen: data persists, page count derived from the file size.
  {
    std::unique_ptr<FileBackend> backend;
    ASSERT_TRUE(FileBackend::Open(path, &backend).ok());
    EXPECT_EQ(backend->PageCount(), 4u);
    uint8_t r[kPageSize];
    ASSERT_TRUE(backend->ReadPage(0, r).ok());
    EXPECT_EQ(std::memcmp(w, r, kPageSize), 0);
  }
  std::filesystem::remove(path);
}

TEST(FileBackend, OpenFailsOnBadPath) {
  std::unique_ptr<FileBackend> backend;
  const Status s = FileBackend::Open("/nonexistent-dir/usj.bin", &backend);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(Pager, AllocateIsContiguous) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "p");
  EXPECT_EQ(pager.Allocate(3), 0u);
  EXPECT_EQ(pager.Allocate(2), 3u);
  EXPECT_EQ(pager.page_count(), 5u);
}

TEST(Pager, ReadWriteRunsChargeOneRequest) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "p");
  std::vector<uint8_t> buf(4 * kPageSize);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  const PageId first = pager.Allocate(4);
  ASSERT_TRUE(pager.WriteRun(first, 4, buf.data()).ok());
  EXPECT_EQ(disk.stats().write_requests, 1u);
  std::vector<uint8_t> rd(4 * kPageSize);
  ASSERT_TRUE(pager.ReadRun(first, 4, rd.data()).ok());
  EXPECT_EQ(disk.stats().read_requests, 1u);
  EXPECT_EQ(buf, rd);
}

TEST(Pager, WritePageExtendsAllocation) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "p");
  uint8_t page[kPageSize] = {1};
  ASSERT_TRUE(pager.WritePage(9, page).ok());
  EXPECT_EQ(pager.page_count(), 10u);
}

TEST(Pager, AccumulatesIoWallSeconds) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "p");
  std::vector<uint8_t> buf(8 * kPageSize, 0x5A);
  const PageId first = pager.Allocate(8);
  ASSERT_TRUE(pager.WriteRun(first, 8, buf.data()).ok());
  ASSERT_TRUE(pager.ReadRun(first, 8, buf.data()).ok());
  // Wall time of the actual backend transfer, distinct from the modeled
  // io_seconds (which simulate a much slower 1999 disk).
  EXPECT_GT(disk.stats().io_wall_seconds, 0.0);
  EXPECT_LT(disk.stats().io_wall_seconds, disk.stats().io_seconds);
}

// --- io_internal retry loops (fault injection via pread/pwrite-shaped
// lambdas: count sequences a real kernel could produce) -----------------

TEST(ReadFull, RetriesEintrAndAccumulatesShortCounts) {
  const size_t len = 1000;
  std::vector<uint8_t> src(len);
  for (size_t i = 0; i < len; ++i) src[i] = static_cast<uint8_t>(i * 13);
  int calls = 0;
  auto pread_fn = [&](void* buf, size_t l, off_t offset) -> ssize_t {
    ++calls;
    if (calls == 1) {
      errno = EINTR;
      return -1;
    }
    // Dribble out 100 bytes per call, from the right source offset.
    const size_t n = std::min<size_t>(100, l);
    std::memcpy(buf, src.data() + offset, n);
    return static_cast<ssize_t>(n);
  };
  std::vector<uint8_t> dst(len, 0);
  Result<size_t> got = io_internal::ReadFull(pread_fn, dst.data(), len, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), len);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(calls, 11);  // 1 EINTR + 10 x 100 bytes.
}

TEST(ReadFull, StopsAtEofAndReportsBytesRead) {
  auto pread_fn = [](void* buf, size_t l, off_t offset) -> ssize_t {
    // 300-byte "file": EOF afterwards.
    if (offset >= 300) return 0;
    const size_t n = std::min<size_t>(l, static_cast<size_t>(300 - offset));
    std::memset(buf, 0x42, n);
    return static_cast<ssize_t>(n);
  };
  uint8_t dst[512];
  Result<size_t> got = io_internal::ReadFull(pread_fn, dst, sizeof(dst), 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 300u);  // Caller judges whether EOF is legitimate.
}

TEST(ReadFull, SurfacesHardErrorsAsIoError) {
  auto pread_fn = [](void*, size_t, off_t) -> ssize_t {
    errno = EBADF;
    return -1;
  };
  uint8_t dst[64];
  Result<size_t> got = io_internal::ReadFull(pread_fn, dst, sizeof(dst), 0);
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
}

TEST(WriteFull, RetriesEintrAndShortWrites) {
  std::vector<uint8_t> sink(1000, 0);
  int calls = 0;
  auto pwrite_fn = [&](const void* buf, size_t l, off_t offset) -> ssize_t {
    ++calls;
    if (calls % 3 == 0) {
      errno = EINTR;
      return -1;
    }
    const size_t n = std::min<size_t>(64, l);
    std::memcpy(sink.data() + offset, buf, n);
    return static_cast<ssize_t>(n);
  };
  std::vector<uint8_t> src(1000);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(io_internal::WriteFull(pwrite_fn, src.data(), src.size(), 0).ok());
  EXPECT_EQ(sink, src);
}

TEST(WriteFull, ZeroProgressIsAnError) {
  auto pwrite_fn = [](const void*, size_t, off_t) -> ssize_t { return 0; };
  uint8_t src[64] = {};
  const Status s = io_internal::WriteFull(pwrite_fn, src, sizeof(src), 0);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// --- Storage factories -------------------------------------------------

TEST(TmpFileStorageFactory, CreatesWorkingBackendsAndCleansUp) {
  std::string dir;
  {
    Result<std::unique_ptr<TmpFileStorageFactory>> factory =
        TmpFileStorageFactory::Make();
    ASSERT_TRUE(factory.ok()) << factory.status().ToString();
    dir = (*factory)->dir();
    ASSERT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_EQ((*factory)->description(), "file:" + dir);

    Result<std::unique_ptr<StorageBackend>> backend =
        (*factory)->Create("pbsm.a.0");
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    RoundTrip(backend->get());
    // Files are unlinked at creation (the fd keeps them alive), so the
    // directory stays empty and nothing can leak on abnormal exit.
    EXPECT_TRUE(std::filesystem::is_empty(dir));

    // Names repeat across shards; the sequence number keeps paths unique.
    Result<std::unique_ptr<StorageBackend>> again =
        (*factory)->Create("pbsm.a.0");
    ASSERT_TRUE(again.ok());
    uint8_t page[kPageSize] = {9};
    ASSERT_TRUE((*again)->WritePage(0, page).ok());
    EXPECT_EQ((*backend)->PageCount(), 4u);  // Distinct files.
  }
  EXPECT_FALSE(std::filesystem::exists(dir));  // Dtor removed the dir.
}

TEST(MakePager, NullFactoryMeansMemory) {
  DiskModel disk(MachineModel::Machine3());
  Result<std::unique_ptr<Pager>> pager = MakePager(nullptr, &disk, "scratch");
  ASSERT_TRUE(pager.ok());
  uint8_t page[kPageSize] = {1};
  ASSERT_TRUE((*pager)->WritePage(0, page).ok());
}

// --- StreamWriter error paths ------------------------------------------

TEST(StreamWriter, FinishSurfacesDeferredFlushError) {
  DiskModel disk(MachineModel::Machine3());
  auto backend = std::make_unique<FailingBackend>();
  FailingBackend* failer = backend.get();
  Pager pager(std::move(backend), &disk, "p");
  StreamWriter<uint64_t> writer(&pager, /*block_pages=*/1);
  failer->fail_writes = true;
  // Fill more than one block so a flush happens (and fails) mid-append;
  // Append itself stays void — the error is sticky until Finish.
  const uint64_t per_block = StreamWriter<uint64_t>::kRecordsPerPage;
  for (uint64_t i = 0; i < per_block + 5; ++i) writer.Append(i);
  EXPECT_FALSE(writer.status().ok());
  Result<uint64_t> n = writer.Finish();
  EXPECT_EQ(n.status().code(), StatusCode::kIoError);
}

TEST(StreamWriter, AbandonAllowsDestructionWithBufferedRecords) {
  DiskModel disk(MachineModel::Machine3());
  Pager pager(std::make_unique<MemoryBackend>(), &disk, "p");
  {
    StreamWriter<uint64_t> writer(&pager);
    writer.Append(1);
    writer.Append(2);
    writer.Abandon();  // Error-path unwind: no Finish, no abort.
  }
  // Nothing was flushed for the abandoned block.
  EXPECT_EQ(disk.stats().pages_written, 0u);
}

}  // namespace
}  // namespace sj
