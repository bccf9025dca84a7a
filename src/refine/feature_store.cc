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
  return FeatureStore(pager, header_page, header.count, header.base_id);
}

Result<PageId> FeatureStore::DataPageOf(ObjectId id) const {
  const uint64_t index = static_cast<uint64_t>(id) - base_id_;
  if (id < base_id_ || index >= count_) {
    return Status::InvalidArgument("feature id " + std::to_string(id) +
                                   " outside store [" +
                                   std::to_string(base_id_) + ", " +
                                   std::to_string(base_id_ + count_) + ")");
  }
  return static_cast<PageId>(first_data_page_ + index / kRecordsPerPage);
}

Result<Segment> FeatureStore::Fetch(ObjectId id) const {
  SJ_ASSIGN_OR_RETURN(PageId page, DataPageOf(id));
  uint8_t buf[kPageSize];
  SJ_RETURN_IF_ERROR(pager_->ReadPage(page, buf));
  const uint64_t slot =
      (static_cast<uint64_t>(id) - base_id_) % kRecordsPerPage;
  Segment out;
  std::memcpy(&out, buf + slot * sizeof(Segment), sizeof(Segment));
  return out;
}

Result<uint64_t> FeatureStore::FetchBatch(Span<const ObjectId> ids,
                                          std::vector<Segment>* out,
                                          DiskModel* charge,
                                          uint32_t charge_dev) const {
  if (ids.empty()) return uint64_t{0};
  std::vector<PageId> pages;  // Distinct data pages, ascending.
  pages.reserve(ids.size());
  for (const ObjectId id : ids) {
    SJ_ASSIGN_OR_RETURN(PageId page, DataPageOf(id));
    pages.push_back(page);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  // Runs of consecutive pages become single requests, in ascending page
  // order; slot i of the buffer holds pages[i].
  std::vector<uint8_t> buffer(pages.size() * kPageSize);
  size_t i = 0;
  while (i < pages.size()) {
    size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1 &&
           j - i < kStreamBlockPages) {
      ++j;
    }
    const uint32_t npages = static_cast<uint32_t>(j - i);
    uint8_t* dst = buffer.data() + i * kPageSize;
    if (charge == nullptr) {
      SJ_RETURN_IF_ERROR(pager_->ReadRun(pages[i], npages, dst));
    } else {
      charge->Read(charge_dev, pages[i], npages);
      WallTimer wall;
      for (uint32_t k = 0; k < npages; ++k) {
        SJ_RETURN_IF_ERROR(pager_->backend()->ReadPage(
            pages[i] + k, dst + size_t{k} * kPageSize));
      }
      charge->AddIoWall(wall.Elapsed());
    }
    i = j;
  }

  out->reserve(out->size() + ids.size());
  for (const ObjectId id : ids) {
    const uint64_t index = static_cast<uint64_t>(id) - base_id_;
    const PageId page =
        static_cast<PageId>(first_data_page_ + index / kRecordsPerPage);
    const size_t slot_in_buffer =
        std::lower_bound(pages.begin(), pages.end(), page) - pages.begin();
    Segment s;
    std::memcpy(&s,
                buffer.data() + slot_in_buffer * kPageSize +
                    (index % kRecordsPerPage) * sizeof(Segment),
                sizeof(Segment));
    out->push_back(s);
  }
  return static_cast<uint64_t>(pages.size());
}

}  // namespace sj
