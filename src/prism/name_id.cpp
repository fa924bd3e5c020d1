#include "prism/name_id.h"

#include <functional>
#include <unordered_map>
#include <vector>

#include "util/assert.h"

namespace dif::prism {

namespace {

struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct NameTable {
  /// Node-based, so the keys never move: by_id points into it.
  std::unordered_map<std::string, NameId, NameHash, std::equal_to<>> ids;
  std::vector<const std::string*> by_id;

  NameTable() { add(""); }

  NameId add(std::string_view name) {
    const auto id = static_cast<NameId>(by_id.size());
    by_id.push_back(&ids.emplace(std::string(name), id).first->first);
    return id;
  }
};

NameTable& table() {
  static NameTable instance;
  return instance;
}

}  // namespace

NameId intern(std::string_view name) {
  NameTable& t = table();
  const auto it = t.ids.find(name);
  return it != t.ids.end() ? it->second : t.add(name);
}

NameId find_name(std::string_view name) {
  const NameTable& t = table();
  const auto it = t.ids.find(name);
  return it != t.ids.end() ? it->second : kUnknownName;
}

const std::string& name_of(NameId id) {
  const NameTable& t = table();
  DIF_ASSERT(id < t.by_id.size(), "name_of: id was never interned");
  return *t.by_id[id];
}

}  // namespace dif::prism
