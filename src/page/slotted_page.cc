#include "page/slotted_page.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace shoremt::page {

void SlottedPage::Init(PageNum page_num, StoreId store, PageType type) {
  FormatPage(data_, page_num, store, type);
}

SlottedPage::Slot* SlottedPage::SlotAt(uint16_t index) {
  return reinterpret_cast<Slot*>(data_ + kPageSize) - (index + 1);
}

const SlottedPage::Slot* SlottedPage::SlotAt(uint16_t index) const {
  return reinterpret_cast<const Slot*>(data_ + kPageSize) - (index + 1);
}

uint16_t SlottedPage::LiveCount() const {
  uint16_t live = 0;
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    if (SlotAt(i)->offset != 0) ++live;
  }
  return live;
}

size_t SlottedPage::ContiguousFree() const {
  size_t slots_bottom = kPageSize - SlotCount() * sizeof(Slot);
  return slots_bottom - header()->free_begin;
}

size_t SlottedPage::DeadBytes() const {
  size_t dead = 0;
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    const Slot* s = SlotAt(i);
    if (s->offset == 0) dead += s->length;
  }
  return dead;
}

size_t SlottedPage::FreeSpace() const {
  return ContiguousFree() + DeadBytes();
}

bool SlottedPage::Fits(size_t size) const {
  // Room for the record and a new slot entry without compaction fits
  // whatever the scans below would find.
  if (ContiguousFree() >= size + sizeof(Slot)) return true;
  // A tombstoned slot can be reused; otherwise a new slot entry is needed.
  bool has_tombstone = false;
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    if (SlotAt(i)->offset == 0) {
      has_tombstone = true;
      break;
    }
  }
  size_t need = size + (has_tombstone ? 0 : sizeof(Slot));
  return FreeSpace() >= need;
}

Result<uint16_t> SlottedPage::Insert(std::span<const uint8_t> payload) {
  if (payload.size() > MaxRecordSize()) {
    return Status::InvalidArgument("record exceeds page capacity");
  }
  // Prefer reusing a tombstoned slot so RecordIds stay dense.
  uint16_t slot = SlotCount();
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    if (SlotAt(i)->offset == 0) {
      slot = i;
      break;
    }
  }
  Status st = InsertAt(slot, payload);
  if (!st.ok()) return st;
  return slot;
}

Status SlottedPage::InsertAt(uint16_t slot, std::span<const uint8_t> payload) {
  PageHeader* h = header();
  bool new_slot = slot >= h->slot_count;
  if (!new_slot && SlotAt(slot)->offset != 0) {
    return Status::AlreadyExists("slot is live");
  }
  // Slots past slot_count materialize the gap as tombstones: replicated
  // replay applies page inserts in commit order, which can create slot
  // k+1 before slot k (the earlier-slot insert's transaction committed
  // later). Normal redo/undo stays contiguous and never takes the gap
  // path.
  size_t gap_slots = new_slot ? slot + 1 - h->slot_count : 0;
  size_t need = payload.size() + gap_slots * sizeof(Slot);
  if (ContiguousFree() < need) {
    if (FreeSpace() < need) return Status::OutOfSpace("page full");
    Compact();
    if (ContiguousFree() < need) return Status::OutOfSpace("page full");
  }
  if (new_slot) {
    for (uint16_t i = h->slot_count; i < slot; ++i) {
      Slot* gap = SlotAt(i);
      gap->offset = 0;
      gap->length = 0;
    }
    h->slot_count = slot + 1;
  }
  Slot* s = SlotAt(slot);
  s->offset = static_cast<uint16_t>(h->free_begin);
  s->length = static_cast<uint16_t>(payload.size());
  if (!payload.empty()) {
    std::memcpy(data_ + h->free_begin, payload.data(), payload.size());
  }
  h->free_begin += static_cast<uint32_t>(payload.size());
  return Status::Ok();
}

Result<std::span<const uint8_t>> SlottedPage::Read(uint16_t slot) const {
  if (slot >= SlotCount()) return Status::NotFound("slot out of range");
  const Slot* s = SlotAt(slot);
  if (s->offset == 0) return Status::NotFound("slot deleted");
  return std::span<const uint8_t>(data_ + s->offset, s->length);
}

Status SlottedPage::Update(uint16_t slot, std::span<const uint8_t> payload) {
  if (slot >= SlotCount()) return Status::NotFound("slot out of range");
  Slot* s = SlotAt(slot);
  if (s->offset == 0) return Status::NotFound("slot deleted");
  if (payload.size() <= s->length) {
    // Shrinking or equal: overwrite in place (leftover bytes become dead
    // space accounted against the old length).
    std::memcpy(data_ + s->offset, payload.data(), payload.size());
    s->length = static_cast<uint16_t>(payload.size());
    return Status::Ok();
  }
  // Growing: tombstone, then re-insert into the same slot.
  uint16_t old_offset = s->offset;
  uint16_t old_length = s->length;
  s->offset = 0;
  Status st = InsertAt(slot, payload);
  if (!st.ok()) {
    s->offset = old_offset;  // Roll back the tombstone.
    s->length = old_length;
    return st;
  }
  return Status::Ok();
}

Status SlottedPage::Delete(uint16_t slot) {
  if (slot >= SlotCount()) return Status::NotFound("slot out of range");
  Slot* s = SlotAt(slot);
  if (s->offset == 0) return Status::NotFound("slot already deleted");
  PageHeader* h = header();
  if (static_cast<uint32_t>(s->offset) + s->length == h->free_begin) {
    // LIFO reclamation: the record sits at the top of the heap, so its
    // bytes return to the contiguous pool immediately. This makes undo's
    // delete-of-the-latest-insert a byte-exact reversal — without it, an
    // aborted transaction leaks its slot entries and dead bytes until
    // compaction, and rolling back a delete on a near-full page can fail
    // with OutOfSpace (an abort must never fail for lack of space it
    // itself consumed).
    h->free_begin = s->offset;
    s->length = 0;
  }
  s->offset = 0;  // A surviving length measures reclaimable dead space.
  // Trailing tombstones that carry no dead bytes release their directory
  // entries too; InsertAt re-materializes gaps on demand, so slot numbers
  // handed out earlier stay addressable.
  while (h->slot_count > 0) {
    Slot* last = SlotAt(h->slot_count - 1);
    if (last->offset != 0 || last->length != 0) break;
    --h->slot_count;
  }
  return Status::Ok();
}

bool SlottedPage::IsLive(uint16_t slot) const {
  return slot < SlotCount() && SlotAt(slot)->offset != 0;
}

void SlottedPage::Compact() {
  PageHeader* h = header();
  // Copy live records into a scratch heap in slot order, then rewrite.
  std::vector<uint8_t> scratch;
  scratch.reserve(h->free_begin - sizeof(PageHeader));
  std::vector<std::pair<uint16_t, uint16_t>> placed(SlotCount());  // off,len
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    Slot* s = SlotAt(i);
    if (s->offset == 0) {
      placed[i] = {0, 0};
      continue;
    }
    uint16_t new_off =
        static_cast<uint16_t>(sizeof(PageHeader) + scratch.size());
    scratch.insert(scratch.end(), data_ + s->offset,
                   data_ + s->offset + s->length);
    placed[i] = {new_off, s->length};
  }
  if (!scratch.empty()) {
    std::memcpy(data_ + sizeof(PageHeader), scratch.data(), scratch.size());
  }
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    Slot* s = SlotAt(i);
    if (s->offset != 0) {
      s->offset = placed[i].first;
      s->length = placed[i].second;
    } else {
      s->length = 0;  // Dead space reclaimed.
    }
  }
  h->free_begin = static_cast<uint32_t>(sizeof(PageHeader) + scratch.size());
}

}  // namespace shoremt::page
