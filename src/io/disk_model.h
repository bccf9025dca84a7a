#ifndef USJ_IO_DISK_MODEL_H_
#define USJ_IO_DISK_MODEL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "io/machine_model.h"

namespace sj {

/// The page size used everywhere (R-tree nodes, stream pages). 8 KB, as in
/// the paper's experiments; with 20-byte entries this yields the paper's
/// R-tree fanout of 400.
inline constexpr size_t kPageSize = 8192;

/// Aggregate I/O accounting for one simulated disk.
struct DiskStats {
  uint64_t read_requests = 0;
  uint64_t sequential_read_requests = 0;
  uint64_t random_read_requests = 0;
  uint64_t write_requests = 0;
  uint64_t sequential_write_requests = 0;
  uint64_t random_write_requests = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  /// Modeled elapsed disk time in seconds.
  double io_seconds = 0.0;
  /// Measured wall-clock seconds spent inside actual StorageBackend
  /// reads/writes charged to this model (near zero for MemoryBackend,
  /// real transfer time for FileBackend). Parallel workers report their
  /// transfer time here too, so the sum can exceed the elapsed wall time
  /// of the join.
  double io_wall_seconds = 0.0;

  DiskStats operator-(const DiskStats& o) const;
  /// Accumulates another disk's counters and modeled time (merging the
  /// per-worker shards of a parallel join).
  DiskStats& operator+=(const DiskStats& o);
};

/// Per-device (per logical file) page counters, for attribution of I/O to
/// individual inputs (e.g. Table 4 counts only R-tree pages).
struct DeviceStats {
  std::string name;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t read_requests = 0;
  uint64_t write_requests = 0;
};

/// Simulates one disk shared by all files of an experiment.
///
/// Every page transfer in the library is routed here. A request names a
/// device (logical file), a first page and a page count; the model charges
///
///   stream continuation:  npages * transfer_time(page)
///   random access:        avg_access + npages * transfer_time(page)
///
/// A request is a *continuation* when it starts within the forward
/// read-ahead window (one 64 KB cache segment) of an active stream. The
/// drive tracks as many concurrent streams as its on-disk cache has 64 KB
/// segments (Table 1: 8 on Machines 1/3, 2 on Machine 2). This models
/// firmware read-ahead, which is what lets ST's depth-first traversal read
/// the interleaved-but-contiguous leaf runs of two bulk-loaded R-trees at
/// partially-streaming speed (§6.2) while PQ's sweep-order accesses —
/// scattered across the whole file — stay random. Reads and writes use
/// separate segment sets, and write transfers cost `write_factor` times
/// read transfers (§6.3).
///
/// All of the qualitative results of the paper emerge from the access
/// patterns themselves against this one model; there are no per-algorithm
/// cost constants.
///
/// Thread-safe: charges and stat reads serialize on an internal mutex, so
/// one model can back the shared BufferPool's latched loads and a query
/// whose strips run on the shared worker pool. (The parallel join engine
/// still gives each work unit a private shard — sharding is about keeping
/// the *modeled* stream state serial-equivalent, not about locking.)
class DiskModel {
 public:
  explicit DiskModel(MachineModel machine);

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  /// Registers a logical file; returns its device id.
  uint32_t RegisterDevice(std::string name);

  /// Charges a read of `npages` pages starting at `first_page` of `dev`.
  void Read(uint32_t dev, uint64_t first_page, uint32_t npages);
  /// Charges a write of `npages` pages starting at `first_page` of `dev`.
  void Write(uint32_t dev, uint64_t first_page, uint32_t npages);

  /// Accumulates measured wall-clock seconds spent in real backend I/O.
  /// Kept separate from Read/Write so the *modeled* charge stream (and
  /// with it stream-detection state) is identical whether the bytes moved
  /// on the consuming thread or on a worker.
  void AddIoWall(double seconds);

  /// Adds counters another model was charged (a partitioned join's unit
  /// shard) to this one's aggregate stats, so a delta of stats() covers
  /// that I/O too. Stream state, per-device counters and the LRU clock
  /// stay as they are: later requests price exactly as without the call.
  void Absorb(const DiskStats& charged);

  /// Consistent snapshots (by value: the counters may move concurrently).
  DiskStats stats() const;
  std::vector<DeviceStats> device_stats() const;
  const MachineModel& machine() const { return machine_; }

  /// Concurrent sequential streams the drive can sustain per direction.
  size_t stream_capacity() const { return stream_capacity_; }

  /// Clears the aggregate and per-device counters (stream state is kept).
  void ResetStats();

 private:
  struct Stream {
    uint32_t dev = 0;
    uint64_t next_page = 0;
    uint64_t last_use = 0;
  };

  // Returns true (and advances the stream) if the request continues one of
  // `streams`; otherwise installs a new stream, evicting the LRU. Caller
  // must hold mu_.
  bool MatchStream(std::vector<Stream>* streams, uint32_t dev,
                   uint64_t first_page, uint32_t npages);

  mutable std::mutex mu_;
  MachineModel machine_;
  DiskStats stats_;
  std::vector<DeviceStats> devices_;
  size_t stream_capacity_;
  uint64_t clock_ = 0;
  std::vector<Stream> read_streams_;
  std::vector<Stream> write_streams_;
};

}  // namespace sj

#endif  // USJ_IO_DISK_MODEL_H_
