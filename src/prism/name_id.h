// Interned component names for the Prism-MW event path.
//
// Names stay strings on the wire and in every report, but the per-event
// work — resolving a destination to a local component, looking up its host
// in a DistributionConnector's location table, counting an interaction in
// an EvtFrequencyMonitor — keys on a dense NameId instead of hashing or
// comparing the string again at every step.
//
// The table is process-wide and append-only: an id, once handed out, names
// the same string for the rest of the process, so ids agree across the
// architectures (hosts) of a simulation and can index per-host vectors.
// Id 0 is the empty name, the destination of a broadcast event.
//
// Not thread-safe: like the rest of Prism-MW, it is used only from the
// thread that drives the simulation.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace dif::prism {

using NameId = std::uint32_t;

/// The id of the empty name.
inline constexpr NameId kEmptyName = 0;
/// Returned by find_name() for a name never interned; names nothing.
inline constexpr NameId kUnknownName = std::numeric_limits<NameId>::max();

/// The id of `name`, adding it to the table on first use.
NameId intern(std::string_view name);
/// The id of `name` if it has been interned, else kUnknownName. Never adds
/// to the table (cold lookups by arbitrary strings use this).
[[nodiscard]] NameId find_name(std::string_view name);
/// The name an id stands for (`id` must come from intern()).
[[nodiscard]] const std::string& name_of(NameId id);

/// True for the middleware's own names: admins, the deployer, model-sync
/// endpoints and every control event carry the "__" prefix, application
/// components and events never do.
[[nodiscard]] constexpr bool is_meta_name(std::string_view name) noexcept {
  return name.starts_with("__");
}

}  // namespace dif::prism
