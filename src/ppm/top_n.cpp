#include "ppm/top_n.hpp"

#include <algorithm>

namespace webppm::ppm {

TopNPredictor::TopNPredictor(const TopNConfig& config) : config_(config) {}

TopNPredictor TopNPredictor::from_popularity(
    const popularity::PopularityTable& table, const TopNConfig& config) {
  TopNPredictor p(config);
  std::vector<std::pair<UrlId, std::uint64_t>> counted;
  for (UrlId u = 0; u < table.url_count(); ++u) {
    const std::uint64_t c = table.accesses(u);
    if (c == 0) continue;
    counted.emplace_back(u, c);
    p.total_ += c;
  }
  p.rank(std::move(counted));
  return p;
}

void TopNPredictor::train(std::span<const session::Session> sessions) {
  counts_.clear();
  total_ = 0;
  train_more(sessions);
}

void TopNPredictor::train_more(std::span<const session::Session> sessions) {
  for (const auto& s : sessions) {
    for (const auto u : s.urls) {
      ++counts_[u];
      ++total_;
    }
  }
  rank({counts_.begin(), counts_.end()});
}

void TopNPredictor::rank(std::vector<std::pair<UrlId, std::uint64_t>> counted) {
  // Count descending, URL ascending: a total order, so the first n of a
  // partial sort are exactly those of a full one.
  const std::size_t n = std::min(config_.n, counted.size());
  std::partial_sort(counted.begin(),
                    counted.begin() + static_cast<std::ptrdiff_t>(n),
                    counted.end(),
                    [](const auto& a, const auto& b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                    });
  push_set_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const auto [url, count] = counted[i];
    push_set_.push_back(
        {url, total_ > 0 ? static_cast<float>(static_cast<double>(count) /
                                              static_cast<double>(total_))
                         : 0.0f});
  }
}

void TopNPredictor::predict(std::span<const UrlId> /*context*/,
                            std::vector<Prediction>& out,
                            UsageScratch* usage) const {
  out = push_set_;
  if (usage != nullptr) usage->touched = true;
}

}  // namespace webppm::ppm
