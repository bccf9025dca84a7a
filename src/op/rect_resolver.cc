#include "op/rect_resolver.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "io/stream.h"
#include "sort/external_sort.h"
#include "sort/radix_sort.h"
#include "util/logging.h"

namespace sj {

namespace {

/// The external path's least grant: its page index plus one page buffer
/// (the id-sort clamps its own memory up to what a merge needs).
constexpr size_t kExternalFloorBytes = 2 * kPageSize;

/// The least room a resident table grows to when it fills.
constexpr uint64_t kMinTableCapacity = 256;

/// log2 of the hash index's slot count over `count` records: the least
/// power of two holding twice as many slots as records (2 at least).
int IndexSlotBits(uint64_t count) {
  int bits = 1;
  while ((uint64_t{1} << bits) < 2 * count) bits++;
  return bits;
}

Status NotInInput(ObjectId id) {
  return Status::Internal("RectResolver: id " + std::to_string(id) +
                          " not in input");
}

}  // namespace

uint64_t RectTableBytes(uint64_t count) {
  return count * sizeof(RectF) +
         (uint64_t{1} << IndexSlotBits(count)) * sizeof(uint32_t);
}

uint64_t ResidentTableBytes(uint64_t capacity) {
  return 2 * capacity * sizeof(RectF);
}

size_t RectMapGrantBytes(size_t budget_bytes, size_t inputs) {
  return std::max(budget_bytes / (2 * std::max<size_t>(inputs, 1)),
                  kExternalFloorBytes);
}

GrantRequest RectResolver::Request(uint64_t count, size_t max_grant_bytes) {
  return GrantRequest{grants::kOpRectMap,
                      static_cast<size_t>(std::min<uint64_t>(
                          RectTableBytes(count), max_grant_bytes)),
                      kExternalFloorBytes};
}

GrantRequest RectResolver::ResidentRequest(uint64_t expected_count,
                                           size_t max_grant_bytes) {
  return GrantRequest{grants::kOpRectMap,
                      static_cast<size_t>(std::min<uint64_t>(
                          ResidentTableBytes(expected_count), max_grant_bytes)),
                      /*floor_bytes=*/0};
}

std::unique_ptr<RectResolver> RectResolver::StartTable(
    MemoryArbiter* arbiter, uint64_t expected_count, size_t max_grant_bytes) {
  SJ_CHECK(arbiter != nullptr);
  auto table = std::unique_ptr<RectResolver>(new RectResolver());
  table->max_grant_bytes_ = max_grant_bytes;
  table->grant_ = arbiter->AcquireShrinkable(
      ResidentRequest(expected_count, max_grant_bytes));
  table->records_.reserve(table->grant_.bytes() / ResidentTableBytes(1));
  return table;
}

bool RectResolver::Add(const RectF& r) {
  if (records_.size() == records_.capacity()) {
    // Double the room, within the cap. The grant grows first, and covers
    // the old records while they move.
    const uint64_t most = max_grant_bytes_ / ResidentTableBytes(1);
    const uint64_t room = std::min<uint64_t>(
        std::max<uint64_t>(2 * records_.capacity(), kMinTableCapacity), most);
    if (room <= records_.capacity() ||
        !grant_.TryGrow(static_cast<size_t>(ResidentTableBytes(room)))) {
      return false;
    }
    records_.reserve(static_cast<size_t>(room));
  }
  records_.push_back(r);
  return true;
}

void RectResolver::Seal() {
  count_ = records_.size();
  {
    std::vector<RectF> scratch(records_.size());
    grant_.NoteUsage((records_.capacity() + scratch.size()) * sizeof(RectF));
    RadixSortByYLo(records_.data(), records_.size(), scratch.data());
  }
  IndexRecords();
  grant_.NoteUsage(records_.capacity() * sizeof(RectF) +
                   slots_.size() * sizeof(uint32_t));
}

Result<std::unique_ptr<RectResolver>> RectResolver::Build(
    const JoinInput& input, DiskModel* disk, MemoryArbiter* arbiter,
    size_t max_grant_bytes, StorageFactory* storage, const std::string& name,
    const SortConfig& sort_config) {
  SJ_CHECK(disk != nullptr && arbiter != nullptr);
  auto resolver = std::unique_ptr<RectResolver>(new RectResolver());
  resolver->count_ = input.count();
  const uint64_t table_bytes = RectTableBytes(resolver->count_);

  // One grant governs the resolver whichever path it takes: the whole
  // hashed table in memory, or (capped or shrunk) the page index plus one
  // page buffer of the external path.
  resolver->grant_ =
      arbiter->AcquireShrinkable(Request(resolver->count_, max_grant_bytes));

  if (resolver->grant_.bytes() >= table_bytes) {
    SJ_RETURN_IF_ERROR(resolver->LoadTable(input));
    resolver->grant_.NoteUsage(
        static_cast<size_t>(RectTableBytes(resolver->records_.size())));
    return resolver;
  }

  // External: id-sort the relation into a scratch pager and keep only the
  // per-page first ids in memory.
  resolver->external_ = true;
  SJ_ASSIGN_OR_RETURN(resolver->scratch_,
                      MakePager(storage, disk, name + ".rectmap"));
  StreamRange raw = input.stream().range;
  if (input.indexed() || input.resident()) {
    SJ_ASSIGN_OR_RETURN(raw, WriteRecords(input, resolver->scratch_.get()));
  }
  ExternalSorter<RectF, OrderById> sorter(resolver->grant_.bytes(),
                                          resolver->scratch_.get(), OrderById(),
                                          arbiter, sort_config);
  SJ_ASSIGN_OR_RETURN(StreamRange sorted,
                      sorter.Sort(raw, resolver->scratch_.get()));
  resolver->sort_stats_ = sorter.stats();
  resolver->first_page_ = sorted.first_page;
  resolver->count_ = sorted.count;

  // Index pass: the first id of every sorted page (one sequential scan;
  // 4 bytes of index per 8 KB page).
  constexpr uint32_t kPerPage = StreamWriter<RectF>::kRecordsPerPage;
  const uint64_t npages = (sorted.count + kPerPage - 1) / kPerPage;
  resolver->page_first_ids_.reserve(static_cast<size_t>(npages));
  StreamReader<RectF> reader(sorted.pager, sorted.first_page, sorted.count);
  uint64_t i = 0;
  while (std::optional<RectF> r = reader.Next()) {
    if (i % kPerPage == 0) resolver->page_first_ids_.push_back(r->id);
    i++;
  }
  SJ_RETURN_IF_ERROR(reader.status());
  resolver->page_buf_.resize(kPageSize);
  resolver->grant_.NoteUsage(resolver->page_first_ids_.size() *
                                 sizeof(ObjectId) +
                             kPageSize);
  return resolver;
}

Status RectResolver::LoadTable(const JoinInput& input) {
  records_.reserve(static_cast<size_t>(count_));
  SJ_RETURN_IF_ERROR(VisitRecords(
      input, [this](const RectF& r) { records_.push_back(r); }));
  IndexRecords();
  return Status::OK();
}

void RectResolver::IndexRecords() {
  // An empty table needs no index (and a resident one may hold no grant).
  if (records_.empty()) return;
  // Slots hold position + 1 in 32 bits, and the mask must fit them too.
  SJ_CHECK(records_.size() < (size_t{1} << 31))
      << "RectResolver: " << records_.size() << " records overflow the index";
  const int bits = IndexSlotBits(records_.size());
  slot_shift_ = 64 - bits;
  slots_.assign(size_t{1} << bits, 0);
  const uint32_t mask = static_cast<uint32_t>(slots_.size() - 1);
  for (uint32_t pos = 0; pos < records_.size(); ++pos) {
    uint32_t s = HomeSlot(records_[pos].id);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = pos + 1;
  }
}

uint32_t RectResolver::HomeSlot(ObjectId id) const {
  // Fibonacci hashing: the high bits of the product spread dense and
  // strided ids alike.
  return static_cast<uint32_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >>
                               slot_shift_);
}

Status RectResolver::Lookup(const std::vector<ObjectId>& ids,
                            std::vector<RectF>* out) {
  out->resize(ids.size());
  if (external_) return LookupExternal(ids, out);
  if (slots_.empty()) {
    return ids.empty() ? Status::OK() : NotInInput(ids[0]);
  }
  // The index is at most half full, so every probe run ends at an empty
  // slot.
  const uint32_t mask = static_cast<uint32_t>(slots_.size() - 1);
  for (size_t i = 0; i < ids.size(); ++i) {
    const ObjectId id = ids[i];
    for (uint32_t s = HomeSlot(id);; s = (s + 1) & mask) {
      const uint32_t pos = slots_[s];
      if (pos == 0) return NotInInput(id);
      if (records_[pos - 1].id == id) {
        (*out)[i] = records_[pos - 1];
        break;
      }
    }
  }
  return Status::OK();
}

Status RectResolver::LookupExternal(const std::vector<ObjectId>& ids,
                                    std::vector<RectF>* out) {
  constexpr uint32_t kPerPage = StreamWriter<RectF>::kRecordsPerPage;
  // Process the batch in ascending id order so page fetches are monotone
  // and consecutive ids share one read.
  std::vector<std::pair<ObjectId, size_t>> order(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) order[i] = {ids[i], i};
  std::sort(order.begin(), order.end());

  for (const auto& [id, pos] : order) {
    // The page holding `id` is the last one whose first id is <= id.
    auto it = std::upper_bound(page_first_ids_.begin(), page_first_ids_.end(),
                               id);
    if (it == page_first_ids_.begin()) return NotInInput(id);
    const uint64_t page =
        static_cast<uint64_t>(it - page_first_ids_.begin()) - 1;
    if (page != cached_page_) {
      SJ_RETURN_IF_ERROR(scratch_->ReadPage(
          static_cast<PageId>(first_page_ + page), page_buf_.data()));
      cached_page_ = page;
      lookup_pages_read_++;
    }
    const uint64_t first_rec = page * kPerPage;
    const uint32_t in_page = static_cast<uint32_t>(
        std::min<uint64_t>(kPerPage, count_ - first_rec));
    auto record_at = [this](uint32_t slot) {
      RectF r;
      std::memcpy(&r, page_buf_.data() + slot * sizeof(RectF), sizeof(RectF));
      return r;
    };
    // Binary search within the page (records are id-sorted).
    uint32_t lo = 0, hi = in_page;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (record_at(mid).id < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == in_page || record_at(lo).id != id) return NotInInput(id);
    (*out)[pos] = record_at(lo);
  }
  return Status::OK();
}

}  // namespace sj
