#include "io/disk_model.h"

#include <algorithm>

#include "util/logging.h"

namespace sj {

DiskStats DiskStats::operator-(const DiskStats& o) const {
  DiskStats d;
  d.read_requests = read_requests - o.read_requests;
  d.sequential_read_requests =
      sequential_read_requests - o.sequential_read_requests;
  d.random_read_requests = random_read_requests - o.random_read_requests;
  d.write_requests = write_requests - o.write_requests;
  d.sequential_write_requests =
      sequential_write_requests - o.sequential_write_requests;
  d.random_write_requests = random_write_requests - o.random_write_requests;
  d.pages_read = pages_read - o.pages_read;
  d.pages_written = pages_written - o.pages_written;
  d.io_seconds = io_seconds - o.io_seconds;
  d.io_wall_seconds = io_wall_seconds - o.io_wall_seconds;
  return d;
}

DiskStats& DiskStats::operator+=(const DiskStats& o) {
  read_requests += o.read_requests;
  sequential_read_requests += o.sequential_read_requests;
  random_read_requests += o.random_read_requests;
  write_requests += o.write_requests;
  sequential_write_requests += o.sequential_write_requests;
  random_write_requests += o.random_write_requests;
  pages_read += o.pages_read;
  pages_written += o.pages_written;
  io_seconds += o.io_seconds;
  io_wall_seconds += o.io_wall_seconds;
  return *this;
}

namespace {
// One cache segment per 64 KB of on-disk buffer, at least two.
constexpr double kSegmentKb = 64.0;
// Forward read-ahead reach of one stream: one cache segment.
constexpr uint64_t kWindowPages =
    static_cast<uint64_t>(kSegmentKb * 1024 / kPageSize);
}  // namespace

DiskModel::DiskModel(MachineModel machine)
    : machine_(std::move(machine)),
      stream_capacity_(std::max<size_t>(
          2, static_cast<size_t>(machine_.disk_buffer_kb / kSegmentKb))) {}

uint32_t DiskModel::RegisterDevice(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  devices_.push_back(DeviceStats{std::move(name)});
  return static_cast<uint32_t>(devices_.size() - 1);
}

DiskStats DiskModel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<DeviceStats> DiskModel::device_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return devices_;
}

bool DiskModel::MatchStream(std::vector<Stream>* streams, uint32_t dev,
                            uint64_t first_page, uint32_t npages) {
  clock_++;
  for (Stream& s : *streams) {
    // A request is serviced without positioning cost when it *starts*
    // inside the stream's forward read-ahead window: period firmware
    // prefetches ahead of a detected stream but does not retain data
    // behind the head, so backward jumps (even short ones) pay the
    // positioning cost. A long transfer may extend past the window — the
    // head is already in place and simply keeps streaming.
    if (s.dev == dev && first_page >= s.next_page &&
        first_page <= s.next_page + kWindowPages) {
      s.next_page = first_page + npages;
      s.last_use = clock_;
      return true;
    }
  }
  // Miss: start a new stream, evicting the least recently used.
  if (streams->size() < stream_capacity_) {
    streams->push_back(Stream{dev, first_page + npages, clock_});
  } else {
    Stream* victim = &(*streams)[0];
    for (Stream& s : *streams) {
      if (s.last_use < victim->last_use) victim = &s;
    }
    *victim = Stream{dev, first_page + npages, clock_};
  }
  return false;
}

void DiskModel::Read(uint32_t dev, uint64_t first_page, uint32_t npages) {
  if (npages == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  SJ_DCHECK(dev < devices_.size());
  const bool sequential = MatchStream(&read_streams_, dev, first_page, npages);
  const double transfer_ms = machine_.PageTransferMs(kPageSize) * npages;
  stats_.io_seconds +=
      (sequential ? transfer_ms : machine_.avg_access_ms + transfer_ms) * 1e-3;
  stats_.read_requests++;
  if (sequential) {
    stats_.sequential_read_requests++;
  } else {
    stats_.random_read_requests++;
  }
  stats_.pages_read += npages;
  devices_[dev].pages_read += npages;
  devices_[dev].read_requests++;
}

void DiskModel::Write(uint32_t dev, uint64_t first_page, uint32_t npages) {
  if (npages == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  SJ_DCHECK(dev < devices_.size());
  const bool sequential =
      MatchStream(&write_streams_, dev, first_page, npages);
  const double transfer_ms =
      machine_.PageTransferMs(kPageSize) * npages * machine_.write_factor;
  stats_.io_seconds +=
      (sequential ? transfer_ms : machine_.avg_access_ms + transfer_ms) * 1e-3;
  stats_.write_requests++;
  if (sequential) {
    stats_.sequential_write_requests++;
  } else {
    stats_.random_write_requests++;
  }
  stats_.pages_written += npages;
  devices_[dev].pages_written += npages;
  devices_[dev].write_requests++;
}

void DiskModel::AddIoWall(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.io_wall_seconds += seconds;
}

void DiskModel::Absorb(const DiskStats& charged) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ += charged;
}

void DiskModel::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = DiskStats{};
  for (DeviceStats& d : devices_) {
    d.pages_read = d.pages_written = 0;
    d.read_requests = d.write_requests = 0;
  }
}

}  // namespace sj
