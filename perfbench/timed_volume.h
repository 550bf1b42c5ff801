#ifndef PERFBENCH_TIMED_VOLUME_H_
#define PERFBENCH_TIMED_VOLUME_H_

#include "io/volume.h"
#include "trace.h"

namespace perfbench {

/// Forwards every device call to `inner` inside an io.read / io.write
/// span, so device time shows up as a child of the Session call (or
/// engine daemon) that caused it. Device counts stay on `inner`'s IoStats.
class TimedVolume final : public shoremt::io::Volume {
 public:
  explicit TimedVolume(shoremt::io::Volume* inner) : inner_(inner) {}

  shoremt::Status ReadPage(shoremt::PageNum page, void* out) override {
    Span s(SpanKind::kIoRead);
    return inner_->ReadPage(page, out);
  }
  shoremt::Status WritePage(shoremt::PageNum page, const void* data) override {
    Span s(SpanKind::kIoWrite);
    return inner_->WritePage(page, data);
  }
  shoremt::Status ReadPagesV(shoremt::PageNum first, uint8_t* const* bufs,
                             size_t n) override {
    Span s(SpanKind::kIoRead);
    return inner_->ReadPagesV(first, bufs, n);
  }
  shoremt::Status WritePagesV(shoremt::PageNum first,
                              const uint8_t* const* bufs, size_t n) override {
    Span s(SpanKind::kIoWrite);
    return inner_->WritePagesV(first, bufs, n);
  }
  shoremt::PageNum NumPages() const override { return inner_->NumPages(); }
  shoremt::Status Extend(shoremt::PageNum pages) override {
    return inner_->Extend(pages);
  }

 private:
  shoremt::io::Volume* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_VOLUME_H_
