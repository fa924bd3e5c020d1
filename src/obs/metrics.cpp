#include "obs/metrics.h"

#include <algorithm>

namespace dif::obs {

std::vector<double> Histogram::default_bounds() {
  return {0.1,   0.25,  0.5,   1.0,    2.5,    5.0,    10.0,
          25.0,  50.0,  100.0, 250.0,  500.0,  1000.0, 2500.0,
          5000.0, 10000.0, 30000.0, 60000.0};
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double sample) noexcept {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  const auto it =
      std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
}

Counter& Registry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(name, bounds.empty() ? Histogram()
                                    : Histogram(std::move(bounds)))
      .first->second;
}

const Counter* Registry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

util::json::Value Registry::to_json() const {
  util::json::Object counters;
  for (const auto& [name, c] : counters_) counters.emplace(name, c.value());
  util::json::Object gauges;
  for (const auto& [name, g] : gauges_) gauges.emplace(name, g.value());
  util::json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    util::json::Array buckets;
    for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
      util::json::Object bucket;
      bucket.emplace("le", i < h.bounds().size()
                               ? util::json::Value(h.bounds()[i])
                               : util::json::Value(nullptr));
      bucket.emplace("count", h.bucket_counts()[i]);
      buckets.emplace_back(std::move(bucket));
    }
    util::json::Object entry;
    entry.emplace("count", h.count());
    entry.emplace("sum", h.sum());
    entry.emplace("min", h.min());
    entry.emplace("max", h.max());
    entry.emplace("mean", h.mean());
    entry.emplace("buckets", std::move(buckets));
    histograms.emplace(name, std::move(entry));
  }
  util::json::Object doc;
  doc.emplace("schema", "dif-metrics-v1");
  doc.emplace("counters", std::move(counters));
  doc.emplace("gauges", std::move(gauges));
  doc.emplace("histograms", std::move(histograms));
  return doc;
}

}  // namespace dif::obs
