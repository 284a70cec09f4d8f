#include "telemetry/registry.hpp"

#include <cstdlib>

#include "util/hash.hpp"

namespace aegis::telemetry {

namespace {

/// Innermost open ScopedSpan on this thread, for parent inference.
thread_local ScopedSpan* t_innermost_span = nullptr;

}  // namespace

Registry::Registry()
    : owned_time_(std::make_unique<TickTimeSource>()),
      time_(owned_time_.get()) {}

Registry::Registry(TimeSource* time_source) : time_(time_source) {}

Registry& Registry::global() {
  static Registry instance;
  // AEGIS_FR_DUMP=<path-prefix> arms crash/terminate dumps of the global
  // recorder to "<prefix>.<pid>.frd" — how CI harvests flight-recorder
  // dumps from failed test legs with zero per-test plumbing.
  static const bool armed = [] {
    const char* prefix = std::getenv("AEGIS_FR_DUMP");
    if (prefix != nullptr && prefix[0] != '\0') {
      instance.recorder().arm_crash_dump(prefix);
    }
    return true;
  }();
  (void)armed;
  return instance;
}

SpanSite::SpanSite(Registry& registry, std::string_view name)
    : registry_(&registry),
      begin_(registry.recorder().event_handle(name, WideEventType::kSpanBegin)),
      end_(registry.recorder().event_handle(name, WideEventType::kSpanEnd)),
      name_hash_(util::fnv1a(name)) {}

void SpanSite::record_complete(std::uint64_t begin_ns, std::uint64_t end_ns,
                               std::uint32_t track,
                               std::uint32_t arg) const noexcept {
  if (registry_ == nullptr) return;
  const std::uint64_t id = registry_->next_span_id();
  begin_.record(begin_ns, id, name_hash_, 0, track, arg);
  end_.record(end_ns < begin_ns ? begin_ns : end_ns, id, name_hash_, 0, track,
              arg);
}

ScopedSpan::ScopedSpan(const SpanSite& site, std::uint32_t track,
                       std::uint32_t arg) noexcept
    : site_(site), track_(track), arg_(arg), enclosing_(t_innermost_span) {
  if (site_.registry_ == nullptr) return;
  id_ = site_.registry_->next_span_id();
  begin_ns_ = site_.registry_->time_source().now_ns();
  site_.begin_.record(begin_ns_, id_, site_.name_hash_,
                      enclosing_ != nullptr ? enclosing_->id_ : 0, track_,
                      arg_);
  t_innermost_span = this;
}

ScopedSpan::~ScopedSpan() {
  if (site_.registry_ == nullptr) return;
  if (t_innermost_span == this) t_innermost_span = enclosing_;
  const std::uint64_t end_ns = site_.registry_->time_source().now_ns();
  site_.end_.record(end_ns < begin_ns_ ? begin_ns_ : end_ns, id_,
                    site_.name_hash_, 0, track_, arg_);
}

}  // namespace aegis::telemetry
