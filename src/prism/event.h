// Prism-MW Events.
//
// "Components in an architecture communicate by exchanging Events, which are
// routed by Connectors" (paper Section 4.2). An event carries a name, an
// optional destination component (empty = broadcast on the connector),
// provenance, and a typed parameter list. Events cross address spaces in
// serialized form via DistributionConnectors (the middleware's Serializable
// facility) — including events whose payload is an entire migrating
// application component.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "prism/bytes.h"
#include "prism/name_id.h"

namespace dif::prism {

/// Typed event parameter.
using ParamValue =
    std::variant<bool, double, std::string, std::vector<std::uint8_t>>;

class Event {
 public:
  Event() = default;
  explicit Event(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Destination component name; empty means broadcast.
  [[nodiscard]] const std::string& to() const noexcept { return to_; }
  /// The destination's interned id (kEmptyName for a broadcast), cached by
  /// set_to() and deserialize() so routing never re-hashes the name.
  [[nodiscard]] NameId to_id() const noexcept { return to_id_; }
  void set_to(std::string to) {
    to_id_ = intern(to);
    to_ = std::move(to);
  }
  void set_to(NameId to) {
    to_ = name_of(to);
    to_id_ = to;
  }

  /// Originating component name (stamped by Component::send).
  [[nodiscard]] const std::string& from() const noexcept { return from_; }
  void set_from(std::string from) { from_ = std::move(from); }

  // --- parameters ----------------------------------------------------------

  void set(std::string key, ParamValue value);
  [[nodiscard]] bool has(std::string_view key) const;

  [[nodiscard]] std::optional<bool> get_bool(std::string_view key) const;
  [[nodiscard]] std::optional<double> get_double(std::string_view key) const;
  [[nodiscard]] const std::string* get_string(std::string_view key) const;
  [[nodiscard]] const std::vector<std::uint8_t>* get_bytes(
      std::string_view key) const;

  [[nodiscard]] const std::vector<std::pair<std::string, ParamValue>>& params()
      const noexcept {
    return params_;
  }

  // --- wire format -----------------------------------------------------------

  /// Approximate wire size in KB (used for bandwidth accounting).
  [[nodiscard]] double size_kb() const;

  /// Exact-size encoding: the buffer is reserved once at its final size.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static Event deserialize(std::span<const std::uint8_t> data);

  /// serialize() / size_kb() of a copy of this event after
  /// set(key, value), without making the copy: the first parameter named
  /// `key` is encoded with `value`, or (key, value) is appended. The
  /// DistributionConnector stamps its remote mark this way on every hop.
  [[nodiscard]] std::vector<std::uint8_t> serialize_with(
      std::string_view key, const ParamValue& value) const;
  [[nodiscard]] double size_kb_with(std::string_view key,
                                    const ParamValue& value) const;

 private:
  /// (key, value) substituted into the parameter list by the *_with
  /// encodings; `value == nullptr` encodes the parameters as they are.
  struct Override {
    std::string_view key;
    const ParamValue* value = nullptr;
  };
  [[nodiscard]] std::vector<std::uint8_t> encode(Override override) const;
  [[nodiscard]] double size_kb(Override override) const;

  std::string name_;
  std::string to_;
  NameId to_id_ = kEmptyName;
  std::string from_;
  /// Insertion-ordered so serialization is deterministic.
  std::vector<std::pair<std::string, ParamValue>> params_;
};

}  // namespace dif::prism
