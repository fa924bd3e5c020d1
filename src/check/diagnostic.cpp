#include "check/diagnostic.h"

#include <sstream>

namespace dif::check {

std::string_view rule_id(Rule rule) noexcept {
  switch (rule) {
    case Rule::kDanglingReference: return "dangling-reference";
    case Rule::kParamRange: return "param-range";
    case Rule::kLocationUnsat: return "location-unsat";
    case Rule::kColocationConflict: return "colocation-conflict";
    case Rule::kGroupLocationUnsat: return "group-location-unsat";
    case Rule::kCapacityPigeonhole: return "capacity-pigeonhole";
    case Rule::kNetworkPartition: return "network-partition";
    case Rule::kIsolatedHost: return "isolated-host";
    case Rule::kUselessHost: return "useless-host";
    case Rule::kRegionSpof: return "region-spof";
    case Rule::kPlacementUnassigned: return "placement-unassigned";
    case Rule::kPlacementLocation: return "placement-location";
    case Rule::kPlacementCapacity: return "placement-capacity";
    case Rule::kPlacementColocation: return "placement-colocation";
    case Rule::kPlacementBandwidth: return "placement-bandwidth";
    case Rule::kResilienceSpof: return "resilience-spof";
    case Rule::kResilienceRegion: return "resilience-region";
    case Rule::kPlanConflict: return "plan-conflict";
    case Rule::kPlanCustody: return "plan-custody";
    case Rule::kPlanOverload: return "plan-overload";
    case Rule::kPlanTransientOverload: return "plan-transient-overload";
    case Rule::kPlanNoop: return "plan-noop";
  }
  return "?";
}

std::string_view to_string(Severity severity) noexcept {
  return severity == Severity::kError ? "error" : "warning";
}

std::string fmt(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

void CheckReport::add(Diagnostic diagnostic) {
  if (diagnostic.severity == Severity::kError) {
    ++errors_;
  } else {
    ++warnings_;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

bool CheckReport::has(Rule rule) const noexcept { return count(rule) > 0; }

std::size_t CheckReport::count(Rule rule) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_)
    if (d.rule == rule) ++n;
  return n;
}

std::string CheckReport::render_text() const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics_) {
    out << to_string(d.severity) << '[' << rule_id(d.rule) << ']';
    for (std::size_t i = 0; i < d.subjects.size(); ++i)
      out << (i == 0 ? " " : ", ") << d.subjects[i];
    out << ": " << d.message;
    if (!d.witness.empty()) {
      out << " [witness:";
      for (const std::string& w : d.witness) out << ' ' << w;
      out << ']';
    }
    if (!d.hint.empty()) out << " (fix: " << d.hint << ')';
    out << '\n';
  }
  if (clean()) {
    out << "check: clean\n";
  } else {
    out << "check: " << errors_ << " error(s), " << warnings_
        << " warning(s)\n";
  }
  return out.str();
}

util::json::Value CheckReport::to_json() const {
  util::json::Array entries;
  for (const Diagnostic& d : diagnostics_) {
    util::json::Object entry;
    entry.emplace("rule", std::string(rule_id(d.rule)));
    entry.emplace("severity", std::string(to_string(d.severity)));
    util::json::Array subjects;
    for (const std::string& s : d.subjects) subjects.emplace_back(s);
    entry.emplace("subjects", std::move(subjects));
    entry.emplace("message", d.message);
    entry.emplace("hint", d.hint);
    if (!d.witness.empty()) {
      util::json::Array witness;
      for (const std::string& w : d.witness) witness.emplace_back(w);
      entry.emplace("witness", std::move(witness));
    }
    entries.emplace_back(std::move(entry));
  }
  util::json::Object doc;
  doc.emplace("errors", static_cast<std::uint64_t>(errors_));
  doc.emplace("warnings", static_cast<std::uint64_t>(warnings_));
  doc.emplace("diagnostics", std::move(entries));
  return util::json::Value(std::move(doc));
}

}  // namespace dif::check
