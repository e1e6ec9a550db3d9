// Robustness fuzzing of the CLF parser: random byte soup, random
// truncations of valid lines, and random valid entries must never crash,
// and valid entries must always round-trip.
#include <gtest/gtest.h>

#include <string>

#include "trace/clf.hpp"
#include "util/rng.hpp"

namespace webppm::trace {
namespace {

class ClfFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClfFuzzTest, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 400; ++round) {
    std::string line;
    const auto len = rng.below(120);
    for (std::uint64_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.between(1, 255)));
    }
    (void)parse_clf_line(line);  // must not crash; result irrelevant
  }
}

TEST_P(ClfFuzzTest, TruncationsOfValidLinesNeverCrash) {
  util::Rng rng(GetParam() ^ 0xfeed);
  const std::string valid =
      R"(host.example - - [02/Jul/1995:10:30:00 -0400] "GET /a/b.html HTTP/1.0" 200 4321)";
  for (std::size_t cut = 0; cut <= valid.size(); ++cut) {
    const auto result = parse_clf_line(valid.substr(0, cut));
    if (cut == valid.size()) {
      EXPECT_TRUE(result.has_value());
    }
  }
}

TEST_P(ClfFuzzTest, RandomValidEntriesRoundTrip) {
  util::Rng rng(GetParam() ^ 0xbeef);
  for (int round = 0; round < 200; ++round) {
    ClfEntry e;
    // Appended, not `"h" + std::to_string(...)`: that form trips GCC 12's
    // -Wrestrict false positive at -O3.
    e.host = std::string("h").append(std::to_string(rng.below(1000)));
    // Any second within 1970-2100.
    e.timestamp = rng.below(4102444800ull);
    e.method = static_cast<Method>(rng.below(3));
    e.path = "/p" + std::to_string(rng.below(100000)) + ".html";
    e.status = static_cast<std::uint16_t>(rng.between(100, 599));
    e.size_bytes = static_cast<std::uint32_t>(rng.below(1u << 30));
    const auto line = format_clf_line(e);
    const auto back = parse_clf_line(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->host, e.host) << line;
    EXPECT_EQ(back->timestamp, e.timestamp) << line;
    EXPECT_EQ(back->method, e.method) << line;
    EXPECT_EQ(back->path, e.path) << line;
    EXPECT_EQ(back->status, e.status) << line;
    EXPECT_EQ(back->size_bytes, e.size_bytes) << line;
  }
}

TEST_P(ClfFuzzTest, CorruptedFieldsRejectedOrParsed) {
  // Mutate single characters of a valid line: the parser must either
  // reject or produce a sane entry (never crash, never nonsense status).
  util::Rng rng(GetParam() ^ 0xc0de);
  const std::string valid =
      R"(client-9 - - [15/Aug/1997:23:59:59 +0200] "GET /x/y.gif HTTP/1.0" 304 0)";
  for (int round = 0; round < 300; ++round) {
    std::string line = valid;
    const auto pos = rng.below(line.size());
    line[pos] = static_cast<char>(rng.between(32, 126));
    const auto result = parse_clf_line(line);
    if (result) {
      EXPECT_LT(result->status, 10000);
      EXPECT_FALSE(result->host.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClfFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace webppm::trace
