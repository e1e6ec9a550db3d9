// Frozen-format decoder fuzz: decode_payload() takes bytes straight off a
// mapped file, so it must never crash, never read out of bounds (ASan runs
// this suite), and never size an allocation from a header field — every
// claimed count is checked against the one exact payload-size equation
// before any section is touched. A *valid-looking* mutation may decode
// (the store's CRC, not the decoder, is the integrity gate); the decoder's
// contract is: reject with a structured reason or yield a payload that
// serves without crashing.
#include "frozen/frozen.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ppm/popularity_ppm.hpp"
#include "ppm/standard_ppm.hpp"

namespace webppm::frozen {
namespace {

session::Session make_session(std::vector<UrlId> urls) {
  session::Session s;
  s.urls = std::move(urls);
  return s;
}

/// The richest payload shape: a PB model, so links, grades and every
/// section are present.
std::string pb_payload() {
  static const std::string payload = [] {
    auto pop = popularity::PopularityTable::from_counts(
        {0, 9, 8, 7, 3, 6, 5, 4, 2, 1});
    ppm::PopularityPpm m{ppm::PopularityPpmConfig{}, &pop};
    m.train(std::vector<session::Session>{
        make_session({1, 2, 3}), make_session({1, 2, 3}),
        make_session({1, 2, 4}), make_session({5, 2, 3}),
        make_session({5, 6, 7, 8}), make_session({5, 6, 7}),
        make_session({9, 1, 2}), make_session({9, 1, 2, 3})});
    BuildSpec spec;
    spec.kind = kKindPopularity;
    spec.pb = m.config();
    spec.tree = &m.tree();
    spec.links = &m.links();
    spec.popularity = &pop;
    return build_payload(spec);
  }();
  return payload;
}

/// Decode + (if accepted) open and serve a few predictions. The assertion
/// is absence of crashes and, on rejection, a non-empty reason.
void exercise(const std::string& bytes) {
  // Heap buffers from std::string are at least 8-byte aligned, matching
  // the decoder's documented alignment contract for mapped files.
  auto owned = std::make_shared<const std::string>(bytes);
  FrozenView view;
  std::string error;
  if (!decode_payload(*owned, &view, &error)) {
    EXPECT_FALSE(error.empty());
    return;
  }
  std::string open_error;
  auto model = FrozenModel::open(owned, *owned, &open_error);
  if (model == nullptr) {
    EXPECT_FALSE(open_error.empty());
    return;
  }
  std::vector<ppm::Prediction> out;
  for (auto ctx : std::vector<std::vector<UrlId>>{
           {1}, {1, 2}, {5, 6}, {9, 1}, {3, 2, 1}, {}}) {
    out.clear();
    model->predict(ctx, out);
  }
}

TEST(FrozenFuzzTest, PristinePayloadDecodes) {
  const std::string payload = pb_payload();
  FrozenView view;
  std::string error;
  EXPECT_TRUE(decode_payload(payload, &view, &error)) << error;
}

TEST(FrozenFuzzTest, EverySingleBitFlipNeverCrashes) {
  const std::string payload = pb_payload();
  std::string mutated = payload;
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[byte] =
          static_cast<char>(payload[byte] ^ static_cast<char>(1 << bit));
      exercise(mutated);
      mutated[byte] = payload[byte];
    }
  }
}

TEST(FrozenFuzzTest, EveryTruncationIsRejected) {
  const std::string payload = pb_payload();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    auto owned =
        std::make_shared<const std::string>(payload.substr(0, len));
    FrozenView view;
    std::string error;
    // A shorter payload can never satisfy the exact-size equation, so every
    // truncation point must be a structured reject, not just a no-crash.
    EXPECT_FALSE(decode_payload(*owned, &view, &error)) << "len " << len;
    EXPECT_FALSE(error.empty()) << "len " << len;
  }
}

TEST(FrozenFuzzTest, TrailingGarbageIsRejected) {
  for (std::size_t extra : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{4096}}) {
    std::string grown = pb_payload();
    grown.append(extra, '\x5a');
    FrozenView view;
    std::string error;
    EXPECT_FALSE(decode_payload(grown, &view, &error)) << "extra " << extra;
    EXPECT_FALSE(error.empty());
  }
}

TEST(FrozenFuzzTest, HostileHeaderCountsCannotSizeAllocations) {
  // A 128-byte header claiming 4 billion nodes: the decoder must reject on
  // the size equation without ever allocating for the claimed sections.
  std::string payload = pb_payload();
  FrozenHeader header;
  std::memcpy(&header, payload.data(), sizeof header);
  for (const std::uint32_t huge :
       {0xffffffffu, 0x80000000u, 0x10000000u}) {
    FrozenHeader h = header;
    h.node_count = huge;
    h.root_count = 1;
    std::string bytes = payload;
    std::memcpy(bytes.data(), &h, sizeof h);
    FrozenView view;
    std::string error;
    EXPECT_FALSE(decode_payload(bytes, &view, &error));
    EXPECT_FALSE(error.empty());

    h.node_count = header.node_count;
    h.url_count = huge;
    std::memcpy(bytes.data(), &h, sizeof h);
    EXPECT_FALSE(decode_payload(bytes, &view, &error));

    h.url_count = header.url_count;
    h.link_target_count = huge;
    std::memcpy(bytes.data(), &h, sizeof h);
    EXPECT_FALSE(decode_payload(bytes, &view, &error));
  }
}

TEST(FrozenFuzzTest, RandomByteSoupNeverCrashes) {
  std::mt19937 rng(0x5eed);
  std::uniform_int_distribution<int> byte(0, 255);
  const std::string payload = pb_payload();
  for (int round = 0; round < 400; ++round) {
    std::uniform_int_distribution<std::size_t> size_dist(
        0, round % 2 == 0 ? 200 : payload.size() + 64);
    std::string soup(size_dist(rng), '\0');
    for (auto& c : soup) c = static_cast<char>(byte(rng));
    // Half the rounds graft a valid magic so the soup reaches the deeper
    // validation stages instead of dying on the first check.
    if (round % 4 < 2 && soup.size() >= 8) {
      std::memcpy(soup.data(), kMagic, sizeof kMagic);
    }
    exercise(soup);
  }
}

TEST(FrozenFuzzTest, RandomBurstsOfFlipsNeverCrash) {
  std::mt19937 rng(0xf402e4);
  const std::string payload = pb_payload();
  std::uniform_int_distribution<std::size_t> pos(0, payload.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 600; ++round) {
    std::string mutated = payload;
    const int burst = 1 + round % 16;
    for (int i = 0; i < burst; ++i) {
      mutated[pos(rng)] = static_cast<char>(byte(rng));
    }
    exercise(mutated);
  }
}

}  // namespace
}  // namespace webppm::frozen
