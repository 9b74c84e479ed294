#include "pdl/differential.h"

#include <string>

namespace flashdb::pdl {

void Differential::AddExtent(uint16_t offset, ConstBytes bytes) {
  // First extent: reserve for the common shape (a handful of extents, a few
  // dozen payload bytes) so the typical differential allocates once per
  // vector instead of growing through several doublings.
  if (extents_.empty()) {
    if (extents_.capacity() < 4) extents_.reserve(4);
    if (data_.capacity() < bytes.size() + 64) data_.reserve(bytes.size() + 64);
  }
  DiffExtent e;
  e.offset = offset;
  e.length = static_cast<uint16_t>(bytes.size());
  extents_.push_back(e);
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

void Differential::AppendTo(ByteBuffer* out) const {
  out->reserve(out->size() + EncodedSize());
  BufferWriter w(out);
  w.PutU32(pid_);
  w.PutU64(timestamp_);
  w.PutU16(static_cast<uint16_t>(extents_.size()));
  size_t data_pos = 0;
  for (const DiffExtent& e : extents_) {
    w.PutU16(e.offset);
    w.PutU16(e.length);
    w.PutBytes(ConstBytes(data_.data() + data_pos, e.length));
    data_pos += e.length;
  }
}

namespace {

Status ExtentBeyondPage(PageId pid) {
  return Status::Corruption("differential extent beyond page bounds (pid " +
                            std::to_string(pid) + ")");
}

// Decodes `count` extents from `r`, calling visit(offset, payload) for each
// until it returns false. Returns false when the bytes run out first. The
// one extent decoder: the walker, DiffRecordView::ApplyTo and ParseNext all
// go through it.
template <typename Visit>
bool DecodeExtents(BufferReader* r, uint16_t count, Visit&& visit) {
  for (uint16_t i = 0; i < count; ++i) {
    const uint16_t offset = r->GetU16();
    const uint16_t length = r->GetU16();
    const ConstBytes payload = r->GetBytes(length);
    if (r->failed()) return false;
    if (!visit(offset, payload)) break;
  }
  return true;
}

}  // namespace

Status Differential::ApplyTo(MutBytes page) const {
  size_t data_pos = 0;
  for (const DiffExtent& e : extents_) {
    if (static_cast<size_t>(e.offset) + e.length > page.size()) {
      return ExtentBeyondPage(pid_);
    }
    // A parsed record may hold only zero-length extents, leaving data_
    // unallocated; memcpy must not be handed its null pointer.
    if (e.length == 0) continue;
    std::memcpy(page.data() + e.offset, data_.data() + data_pos, e.length);
    data_pos += e.length;
  }
  return Status::OK();
}

Status DiffRecordView::ApplyTo(MutBytes page) const {
  Status status;
  auto merge = [&](uint16_t offset, ConstBytes payload) {
    if (offset + payload.size() > page.size()) {
      status = ExtentBeyondPage(pid);
      return false;
    }
    std::memcpy(page.data() + offset, payload.data(), payload.size());
    return true;
  };
  BufferReader reader(extents);
  if (!DecodeExtents(&reader, count, merge)) {
    return Status::Corruption("truncated differential record");
  }
  return status;
}

bool NextRecordView(BufferReader* reader, DiffRecordView* out,
                    Status* out_status) {
  *out_status = Status::OK();
  if (reader->remaining() < 4) return false;
  const uint32_t pid = reader->GetU32();
  if (pid == kPaddingPid) return false;  // erased padding: end of records
  out->pid = pid;
  out->timestamp = reader->GetU64();
  out->count = reader->GetU16();
  const size_t start = reader->position();
  auto skip = [](uint16_t, ConstBytes) { return true; };
  if (!DecodeExtents(reader, out->count, skip)) {
    *out_status = Status::Corruption("truncated differential record");
    return false;
  }
  if (reader->failed()) {
    *out_status = Status::Corruption("truncated differential record header");
    return false;
  }
  out->extents = reader->ConsumedSince(start);
  return true;
}

Status ApplyRecordFromPage(ConstBytes image, PageId pid, MutBytes page,
                           bool* found) {
  *found = false;
  BufferReader reader(image);
  DiffRecordView rec;
  Status parse_status;
  while (NextRecordView(&reader, &rec, &parse_status)) {
    if (rec.pid == pid) {
      *found = true;
      return rec.ApplyTo(page);
    }
  }
  return parse_status;
}

bool Differential::ParseNext(BufferReader* reader, Differential* out,
                             Status* out_status) {
  DiffRecordView rec;
  if (!NextRecordView(reader, &rec, out_status)) return false;
  out->pid_ = rec.pid;
  out->timestamp_ = rec.timestamp;
  out->extents_.clear();
  out->data_.clear();
  out->extents_.reserve(rec.count);
  out->data_.reserve(rec.extents.size() - rec.count * kExtentHeaderSize);
  auto copy = [&](uint16_t offset, ConstBytes payload) {
    out->extents_.push_back({offset, static_cast<uint16_t>(payload.size())});
    out->data_.insert(out->data_.end(), payload.begin(), payload.end());
    return true;
  };
  BufferReader extents(rec.extents);
  DecodeExtents(&extents, rec.count, copy);
  return true;
}

void ComputeDifferentialInto(ConstBytes base, ConstBytes updated, PageId pid,
                             uint64_t timestamp, size_t coalesce_gap,
                             Differential* out) {
  out->Reset(pid, timestamp);
  const size_t n = updated.size();
  size_t i = 0;
  while (i < n) {
    // Skip unchanged bytes (word-at-a-time: pages are mostly unchanged).
    i = FirstMismatch(base.data(), updated.data(), i, n);
    if (i >= n) break;
    // Extend the changed run; swallow equal-byte gaps of at most
    // `coalesce_gap` when more changes follow (cheaper than a new header).
    size_t end = i + 1;
    size_t run_end = end;  // one past the last *changed* byte
    while (end < n) {
      if (base[end] != updated[end]) {
        ++end;
        run_end = end;
      } else {
        // Peek ahead over an unchanged gap.
        size_t gap_end = end;
        while (gap_end < n && gap_end - end < coalesce_gap + 1 &&
               base[gap_end] == updated[gap_end]) {
          ++gap_end;
        }
        if (gap_end < n && base[gap_end] != updated[gap_end] &&
            gap_end - end <= coalesce_gap) {
          end = gap_end;  // fold the gap into this extent
        } else {
          break;
        }
      }
    }
    out->AddExtent(static_cast<uint16_t>(i),
                   updated.subspan(i, run_end - i));
    i = run_end;
  }
}

Differential ComputeDifferential(ConstBytes base, ConstBytes updated,
                                 PageId pid, uint64_t timestamp,
                                 size_t coalesce_gap) {
  Differential diff;
  ComputeDifferentialInto(base, updated, pid, timestamp, coalesce_gap, &diff);
  return diff;
}

}  // namespace flashdb::pdl
