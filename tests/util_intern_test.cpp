#include "util/intern.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace webppm::util {
namespace {

TEST(InternTable, AssignsDenseIdsInFirstSeenOrder) {
  InternTable t;
  EXPECT_EQ(t.intern("/a.html"), 0u);
  EXPECT_EQ(t.intern("/b.html"), 1u);
  EXPECT_EQ(t.intern("/c.html"), 2u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(InternTable, InternIsIdempotent) {
  InternTable t;
  const auto id = t.intern("/index.html");
  EXPECT_EQ(t.intern("/index.html"), id);
  EXPECT_EQ(t.size(), 1u);
}

TEST(InternTable, NameRoundTrips) {
  InternTable t;
  const auto a = t.intern("/x");
  const auto b = t.intern("/y");
  EXPECT_EQ(t.name(a), "/x");
  EXPECT_EQ(t.name(b), "/y");
}

TEST(InternTable, FindReturnsNposForUnknown) {
  InternTable t;
  t.intern("/known");
  EXPECT_EQ(t.find("/unknown"), InternTable::npos);
  EXPECT_EQ(t.find("/known"), 0u);
}

TEST(InternTable, EmptyStringIsAValidKey) {
  InternTable t;
  const auto id = t.intern("");
  EXPECT_EQ(t.find(""), id);
  EXPECT_EQ(t.name(id), "");
}

TEST(InternTable, ShortStringsSurviveGrowth) {
  // Regression guard: SSO strings must not have their string_view keys
  // invalidated as the backing container grows.
  InternTable t;
  std::vector<std::uint32_t> ids;
  // `const char* + std::string&&` trips GCC 12's -Wrestrict false
  // positive at -O3; appending to a named string does not.
  const auto path = [](int i) {
    return std::string("/").append(std::to_string(i));
  };
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(t.intern(path(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(t.find(path(i)), ids[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(t.size(), 10000u);
}

TEST(InternTable, LongStringsWork) {
  InternTable t;
  const std::string long_url(500, 'x');
  const auto id = t.intern(long_url);
  EXPECT_EQ(t.find(long_url), id);
  EXPECT_EQ(t.name(id), long_url);
}

TEST(InternTable, EmptyTableQueries) {
  InternTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find("/"), InternTable::npos);
}

}  // namespace
}  // namespace webppm::util
