#include "obs/trace.h"

namespace dif::obs {

const FieldValue* TraceEvent::field(const std::string& key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

void TraceLog::add_event(double t_ms, std::string name, Fields fields) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(
      {t_ms, 0.0, false, std::move(name), std::move(fields)});
}

TraceLog::SpanId TraceLog::begin_span(double t_ms, std::string name,
                                      Fields fields) {
  if (full()) {
    ++dropped_;
    return kInvalidSpan;
  }
  events_.push_back({t_ms, 0.0, true, std::move(name), std::move(fields)});
  return events_.size() - 1;
}

void TraceLog::span_field(SpanId id, std::string key, FieldValue value) {
  if (id >= events_.size()) return;
  events_[id].fields.emplace_back(std::move(key), std::move(value));
}

void TraceLog::end_span(SpanId id, double t_ms) {
  if (id >= events_.size()) return;
  events_[id].dur_ms = t_ms - events_[id].t_ms;
}

void TraceLog::add_span(double t_ms, double dur_ms, std::string name,
                        Fields fields) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(
      {t_ms, dur_ms, true, std::move(name), std::move(fields)});
}

std::vector<const TraceEvent*> TraceLog::find(const std::string& name) const {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& event : events_)
    if (event.name == name) out.push_back(&event);
  return out;
}

util::json::Value TraceLog::to_json() const {
  util::json::Array events;
  events.reserve(events_.size());
  for (const TraceEvent& event : events_) {
    util::json::Object fields;
    for (const auto& [key, value] : event.fields) {
      std::visit(
          [&fields, &key](const auto& v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::int64_t>) {
              fields.emplace(key, static_cast<double>(v));
            } else {
              fields.emplace(key, v);
            }
          },
          value);
    }
    util::json::Object entry;
    entry.emplace("t_ms", event.t_ms);
    entry.emplace("dur_ms", event.dur_ms);
    entry.emplace("span", event.span);
    entry.emplace("name", event.name);
    entry.emplace("fields", std::move(fields));
    events.emplace_back(std::move(entry));
  }
  util::json::Object doc;
  doc.emplace("schema", "dif-trace-v1");
  doc.emplace("dropped", dropped_);
  doc.emplace("events", std::move(events));
  return doc;
}

}  // namespace dif::obs
