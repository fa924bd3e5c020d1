#include "prism/event.h"

#include <algorithm>

namespace dif::prism {

void Event::set(std::string key, ParamValue value) {
  const auto it =
      std::find_if(params_.begin(), params_.end(),
                   [&](const auto& p) { return p.first == key; });
  if (it != params_.end()) {
    it->second = std::move(value);
  } else {
    params_.emplace_back(std::move(key), std::move(value));
  }
}

bool Event::has(std::string_view key) const {
  return std::any_of(params_.begin(), params_.end(),
                     [&](const auto& p) { return p.first == key; });
}

namespace {
const ParamValue* find_param(
    const std::vector<std::pair<std::string, ParamValue>>& params,
    std::string_view key) {
  const auto it = std::find_if(params.begin(), params.end(),
                               [&](const auto& p) { return p.first == key; });
  return it == params.end() ? nullptr : &it->second;
}
}  // namespace

std::optional<bool> Event::get_bool(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  if (!v) return std::nullopt;
  if (const bool* b = std::get_if<bool>(v)) return *b;
  return std::nullopt;
}

std::optional<double> Event::get_double(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  if (!v) return std::nullopt;
  if (const double* d = std::get_if<double>(v)) return *d;
  return std::nullopt;
}

const std::string* Event::get_string(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  return v ? std::get_if<std::string>(v) : nullptr;
}

const std::vector<std::uint8_t>* Event::get_bytes(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  return v ? std::get_if<std::vector<std::uint8_t>>(v) : nullptr;
}

namespace {

/// Calls fn(key, value) for each parameter of `params` with `override`
/// applied as Event::set would apply it: the first parameter named
/// override.key takes override.value, else the pair comes last.
template <typename Params, typename Override, typename Fn>
void for_each_param(const Params& params, const Override& override, Fn fn) {
  bool pending = override.value != nullptr;
  for (const auto& [key, value] : params) {
    if (pending && key == override.key) {
      fn(std::string_view(key), *override.value);
      pending = false;
    } else {
      fn(std::string_view(key), value);
    }
  }
  if (pending) fn(override.key, *override.value);
}

/// Bytes a value's payload adds beyond its type tag.
std::size_t payload_size(const ParamValue& value) {
  switch (value.index()) {
    case 0: return 1;
    case 1: return 8;
    case 2: return 4 + std::get<std::string>(value).size();
    default: return 4 + std::get<std::vector<std::uint8_t>>(value).size();
  }
}

}  // namespace

double Event::size_kb() const { return size_kb(Override{}); }

double Event::size_kb_with(std::string_view key,
                           const ParamValue& value) const {
  return size_kb(Override{key, &value});
}

double Event::size_kb(Override override) const {
  // Header + param payload; close enough for bandwidth accounting.
  std::size_t bytes = name_.size() + to_.size() + from_.size() + 16;
  for_each_param(params_, override,
                 [&](std::string_view key, const ParamValue& value) {
                   bytes += key.size() + 8;
                   if (const auto* s = std::get_if<std::string>(&value))
                     bytes += s->size();
                   if (const auto* b =
                           std::get_if<std::vector<std::uint8_t>>(&value))
                     bytes += b->size();
                 });
  return static_cast<double>(bytes) / 1024.0;
}

std::vector<std::uint8_t> Event::serialize() const {
  return encode(Override{});
}

std::vector<std::uint8_t> Event::serialize_with(std::string_view key,
                                                const ParamValue& value) const {
  return encode(Override{key, &value});
}

std::vector<std::uint8_t> Event::encode(Override override) const {
  // Sizing pass first, so the buffer is allocated once at its final size.
  std::uint32_t count = 0;
  std::size_t size = 3 * 4 + name_.size() + to_.size() + from_.size() + 4;
  for_each_param(params_, override,
                 [&](std::string_view key, const ParamValue& value) {
                   ++count;
                   size += 4 + key.size() + 1 + payload_size(value);
                 });
  ByteWriter w;
  w.reserve(size);
  w.str(name_);
  w.str(to_);
  w.str(from_);
  w.u32(count);
  for_each_param(params_, override,
                 [&](std::string_view key, const ParamValue& value) {
                   w.str(key);
                   w.u8(static_cast<std::uint8_t>(value.index()));
                   switch (value.index()) {
                     case 0: w.u8(std::get<bool>(value) ? 1 : 0); break;
                     case 1: w.f64(std::get<double>(value)); break;
                     case 2: w.str(std::get<std::string>(value)); break;
                     case 3:
                       w.bytes(std::get<std::vector<std::uint8_t>>(value));
                       break;
                   }
                 });
  return w.take();
}

Event Event::deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  Event event(r.str());
  event.to_ = r.str();
  event.to_id_ = intern(event.to_);
  event.from_ = r.str();
  const std::uint32_t count = r.u32();
  // Capped by what the input can hold (a parameter takes at least
  // kMinParamBytes), so a bogus count fails in decoding, not in reserve().
  constexpr std::size_t kMinParamBytes = 4 + 1 + 1;  // empty key, bool
  event.params_.reserve(
      std::min<std::size_t>(count, r.remaining() / kMinParamBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = r.str();
    switch (r.u8()) {
      case 0: event.params_.emplace_back(std::move(key), r.u8() != 0); break;
      case 1: event.params_.emplace_back(std::move(key), r.f64()); break;
      case 2: event.params_.emplace_back(std::move(key), r.str()); break;
      case 3: event.params_.emplace_back(std::move(key), r.bytes()); break;
      default: throw DecodeError("Event: unknown parameter type tag");
    }
  }
  return event;
}

}  // namespace dif::prism
