#include "refine/feature_store.h"

#include <algorithm>
#include <cstring>

#include "io/stream.h"
#include "util/timer.h"

namespace sj {

static_assert(sizeof(Segment) == 16,
              "Segment must be the 16-byte geometry payload record");

Result<FeatureStore> FeatureStore::Build(Pager* pager,
                                         Span<const Segment> geom,
                                         const std::string& name,
                                         ObjectId base_id) {
  FeatureStoreHeader header;
  header.count = geom.size();
  header.base_id = base_id;
  std::strncpy(header.name, name.c_str(), sizeof(header.name) - 1);

  const PageId header_page = pager->Allocate(1);
  uint8_t page[kPageSize] = {};
  std::memcpy(page, &header, sizeof(header));
  SJ_RETURN_IF_ERROR(pager->WritePage(header_page, page));

  StreamWriter<Segment> writer(pager);
  for (const Segment& s : geom) writer.Append(s);
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  SJ_CHECK(n == geom.size());

  return FeatureStore(pager, header_page, geom.size(), base_id);
}

Result<FeatureStore> FeatureStore::Open(Pager* pager, PageId header_page) {
  uint8_t page[kPageSize];
  SJ_RETURN_IF_ERROR(pager->ReadPage(header_page, page));
  FeatureStoreHeader header;
  std::memcpy(&header, page, sizeof(header));
  if (header.magic != FeatureStoreHeader::kMagic) {
    return Status::Corruption("feature store header magic mismatch");
  }
  if (header.version != FeatureStoreHeader::kVersion) {
    return Status::Corruption("unsupported feature store version");
  }
  const FeatureStore store(pager, header_page, header.count, header.base_id);
  const uint64_t end_page = uint64_t{header_page} + 1 + store.data_pages();
  if (end_page > pager->page_count()) {
    return Status::Corruption(
        "feature store header claims " + std::to_string(header.count) +
        " records (" + std::to_string(store.data_pages()) +
        " data pages) but " + pager->name() + " holds " +
        std::to_string(pager->page_count()) + " pages");
  }
  return store;
}

Status FeatureStore::OutsideStore(ObjectId id) const {
  return Status::InvalidArgument("feature id " + std::to_string(id) +
                                 " outside store [" +
                                 std::to_string(base_id_) + ", " +
                                 std::to_string(base_id_ + count_) + ")");
}

Result<Segment> FeatureStore::Fetch(ObjectId id) const {
  std::vector<Segment> out;
  SJ_RETURN_IF_ERROR(FetchBatch(Span<const ObjectId>(&id, 1), &out).status());
  return out[0];
}

namespace {

/// FetchBatch keys: a record index above an output slot.
uint64_t IndexOfKey(uint64_t key) { return key >> 32; }
uint64_t PageOfKey(uint64_t key) {
  return IndexOfKey(key) / FeatureStore::kRecordsPerPage;
}

/// Orders FetchBatch keys by page, ascending: a stable LSD radix sort of
/// each key's page offset from the smallest page, one byte per pass, so
/// keys whose pages span fewer than 2^16 pages take at most two counting
/// passes. Ids are 32-bit, so no more than three passes are ever needed.
void GroupByPage(std::vector<uint64_t>* keys) {
  constexpr int kDigitBits = 8;
  constexpr uint64_t kDigits = uint64_t{1} << kDigitBits;
  static_assert(FeatureStore::kFetchFixedBytes ==
                    kPageSize + (kDigits + 1) * sizeof(uint32_t),
                "kFetchFixedBytes counts the page buffer and digit counts");
  uint64_t lo = PageOfKey(keys->front()), hi = lo;
  for (const uint64_t key : *keys) {
    lo = std::min(lo, PageOfKey(key));
    hi = std::max(hi, PageOfKey(key));
  }
  if (hi == lo) return;
  std::vector<uint64_t> sorted(keys->size());
  for (int shift = 0; ((hi - lo) >> shift) != 0; shift += kDigitBits) {
    auto digit = [lo, shift](uint64_t key) {
      return ((PageOfKey(key) - lo) >> shift) & (kDigits - 1);
    };
    // starts[d]: keys with a smaller digit than d, once summed.
    uint32_t starts[kDigits + 1] = {};
    for (const uint64_t key : *keys) ++starts[digit(key) + 1];
    for (uint64_t d = 1; d <= kDigits; ++d) starts[d] += starts[d - 1];
    for (const uint64_t key : *keys) sorted[starts[digit(key)]++] = key;
    keys->swap(sorted);
  }
}

}  // namespace

Result<uint64_t> FeatureStore::FetchBatch(Span<const ObjectId> ids,
                                          std::vector<Segment>* out,
                                          DiskModel* charge,
                                          uint32_t charge_dev) const {
  if (ids.empty()) return uint64_t{0};
  SJ_CHECK(ids.size() <= 0xFFFFFFFFu) << "FetchBatch takes < 2^32 ids";
  std::vector<uint64_t> keys(ids.size());
  for (size_t slot = 0; slot < ids.size(); ++slot) {
    if (!Contains(ids[slot])) return OutsideStore(ids[slot]);
    keys[slot] = (uint64_t{ids[slot] - base_id_} << 32) | slot;
  }
  GroupByPage(&keys);

  DiskModel* disk = charge != nullptr ? charge : pager_->disk();
  const uint32_t dev = charge != nullptr ? charge_dev : pager_->device_id();
  const size_t base = out->size();
  out->resize(base + ids.size());
  Segment* slots = out->data() + base;
  // Backs the view only where the backend cannot read in place.
  uint8_t scratch[kPageSize];
  uint64_t pages_read = 0;
  size_t k = 0;
  while (k < keys.size()) {
    // One request: the consecutive distinct pages from here on, at most
    // kStreamBlockPages of them.
    const uint64_t first = PageOfKey(keys[k]);
    uint64_t last = first;
    size_t end = k + 1;
    for (; end < keys.size(); ++end) {
      const uint64_t p = PageOfKey(keys[end]);
      if (p != last && (p != last + 1 || p - first >= kStreamBlockPages)) {
        break;
      }
      last = p;
    }
    const uint32_t npages = static_cast<uint32_t>(last - first + 1);
    disk->Read(dev, first_data_page_ + first, npages);
    WallTimer wall;
    while (k < end) {
      const uint64_t p = PageOfKey(keys[k]);
      SJ_ASSIGN_OR_RETURN(
          const uint8_t* page,
          pager_->backend()->ViewPage(first_data_page_ + p, scratch));
      for (; k < end && PageOfKey(keys[k]) == p; ++k) {
        std::memcpy(&slots[keys[k] & 0xFFFFFFFFu],
                    page + (IndexOfKey(keys[k]) % kRecordsPerPage) *
                               sizeof(Segment),
                    sizeof(Segment));
      }
    }
    disk->AddIoWall(wall.Elapsed());
    pages_read += npages;
  }
  return pages_read;
}

}  // namespace sj
