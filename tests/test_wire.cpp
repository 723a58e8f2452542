#include <gtest/gtest.h>

#include "core/upgrade.hpp"
#include "core/wire.hpp"
#include "util/rng.hpp"

namespace dsdn::core {
namespace {

using metrics::PriorityClass;

NodeStateUpdate sample_nsu() {
  NodeStateUpdate nsu;
  nsu.origin = 42;
  nsu.seq = 77;
  nsu.links.push_back({3, 9, true, 100.0, 2.5, 0.004, 17});
  nsu.links.push_back({4, 11, false, 40.0, 1.0, 0.012, 18});
  nsu.prefixes.push_back({topo::parse_ipv4("10.0.42.0"), 24});
  nsu.demands.push_back({9, PriorityClass::kHigh, 3.25});
  nsu.demands.push_back({11, PriorityClass::kLow, 0.5});
  nsu.tlvs.push_back(make_algorithm_tlv(PathingAlgorithm::kMaxMinFairTe));
  nsu.tlvs.push_back({0xBEEF, "opaque-extension-payload"});
  return nsu;
}

bool nsu_equal(const NodeStateUpdate& a, const NodeStateUpdate& b) {
  if (a.origin != b.origin || a.seq != b.seq) return false;
  if (a.links.size() != b.links.size()) return false;
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    const auto& x = a.links[i];
    const auto& y = b.links[i];
    if (x.link != y.link || x.peer != y.peer || x.up != y.up ||
        x.capacity_gbps != y.capacity_gbps || x.igp_metric != y.igp_metric ||
        x.delay_s != y.delay_s || x.sublabel != y.sublabel) {
      return false;
    }
  }
  if (a.prefixes != b.prefixes) return false;
  if (a.demands.size() != b.demands.size()) return false;
  for (std::size_t i = 0; i < a.demands.size(); ++i) {
    if (a.demands[i].egress != b.demands[i].egress ||
        a.demands[i].priority != b.demands[i].priority ||
        a.demands[i].rate_gbps != b.demands[i].rate_gbps) {
      return false;
    }
  }
  return a.tlvs == b.tlvs;
}

TEST(Wire, RoundTripsFullNsu) {
  const auto nsu = sample_nsu();
  const auto bytes = serialize_nsu(nsu);
  const auto back = decode_nsu(bytes).nsu;
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(nsu_equal(nsu, *back));
  EXPECT_EQ(validate_nsu(*back), NsuValidity::kValid);
}

TEST(Wire, RoundTripsEmptySections) {
  NodeStateUpdate minimal;
  minimal.origin = 1;
  minimal.seq = 1;
  const auto back = decode_nsu(serialize_nsu(minimal)).nsu;
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(nsu_equal(minimal, *back));
}

TEST(Wire, RejectsBadMagicAndVersion) {
  auto bytes = serialize_nsu(sample_nsu());
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_nsu(bad_magic).nsu.has_value());
  auto bad_version = bytes;
  bad_version[4] = 0x7F;
  EXPECT_FALSE(decode_nsu(bad_version).nsu.has_value());
}

TEST(Wire, TruncationNeverYieldsTheOriginal) {
  // Any strict prefix either fails to parse or parses to a structurally
  // different (shorter) message -- a truncated NSU can never be mistaken
  // for the full one. (A cut landing exactly on a section boundary is a
  // well-formed shorter message; TLV framing cannot detect that, which
  // is gRPC's job -- it delivers whole messages.)
  const auto original = sample_nsu();
  const auto bytes = serialize_nsu(original);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(cut));
    const auto parsed = decode_nsu(truncated).nsu;
    if (parsed) {
      EXPECT_FALSE(nsu_equal(original, *parsed)) << "cut at " << cut;
    }
  }
}

TEST(Wire, RejectsOversizedLengthField) {
  auto bytes = serialize_nsu(sample_nsu());
  // The first section's length field sits after magic+version+origin+seq
  // + section type = 4+2+4+8+2 = 20.
  bytes[20] = 0xFF;
  bytes[21] = 0xFF;
  EXPECT_FALSE(decode_nsu(bytes).nsu.has_value());
  const auto result = decode_nsu(bytes);
  EXPECT_EQ(result.error.status, DecodeStatus::kBadSectionLength);
}

TEST(DecodeError, TruncatedHeaderReportsTruncatedStatus) {
  const auto bytes = serialize_nsu(sample_nsu());
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{5},
                          std::size_t{10}, std::size_t{17}}) {
    const auto result = decode_nsu(
        std::span<const std::uint8_t>(bytes.data(), cut));
    ASSERT_FALSE(result) << "cut at " << cut;
    EXPECT_EQ(result.error.status, DecodeStatus::kTruncated) << "cut " << cut;
    EXPECT_LE(result.error.offset, cut);
    EXPECT_EQ(result.error.section, 0) << "header failures carry section 0";
  }
}

TEST(DecodeError, EveryFailingPrefixCarriesStatusAndOffset) {
  // Any strict prefix that fails must say why and where; the offset must
  // point inside the truncated buffer, never past it.
  const auto bytes = serialize_nsu(sample_nsu());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto result =
        decode_nsu(std::span<const std::uint8_t>(bytes.data(), cut));
    if (result) continue;  // boundary cuts are shorter valid messages
    EXPECT_NE(result.error.status, DecodeStatus::kOk) << "cut " << cut;
    EXPECT_LE(result.error.offset, cut) << "cut " << cut;
  }
}

TEST(DecodeError, BadMagicAndVersionStatuses) {
  auto bytes = serialize_nsu(sample_nsu());
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(decode_nsu(bad_magic).error.status, DecodeStatus::kBadMagic);
  auto bad_version = bytes;
  bad_version[4] = 0x7F;
  EXPECT_EQ(decode_nsu(bad_version).error.status, DecodeStatus::kBadVersion);
}

TEST(DecodeError, InflatedCountReportsBadCountInLinksSection) {
  NodeStateUpdate nsu;
  nsu.origin = 1;
  nsu.seq = 1;
  nsu.links.push_back({3, 9, true, 100.0, 2.5, 0.004, 17});
  auto bytes = serialize_nsu(nsu);
  // The links count u32 follows the 18-byte header and the 6-byte
  // section type+length.
  bytes[24] = 0xFF;
  bytes[25] = 0xFF;
  const auto result = decode_nsu(bytes);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error.status, DecodeStatus::kBadCount);
  EXPECT_EQ(result.error.section, kSectionLinks);
}

TEST(DecodeError, InvalidPriorityClassReportsBadValueInDemandsSection) {
  NodeStateUpdate nsu;
  nsu.origin = 1;
  nsu.seq = 1;
  nsu.demands.push_back({2, PriorityClass::kHigh, 1.0});
  auto bytes = serialize_nsu(nsu);
  // Layout: 18-byte header, empty links section (6+4), empty prefixes
  // section (6+4), demands type+length (6) + count (4) + egress (4),
  // then the priority class byte.
  const std::size_t cls_at = 18 + 10 + 10 + 6 + 4 + 4;
  ASSERT_LT(cls_at, bytes.size());
  bytes[cls_at] = 0x7F;
  const auto result = decode_nsu(bytes);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error.status, DecodeStatus::kBadValue);
  EXPECT_EQ(result.error.section, kSectionDemands);
  // The whole 13-byte demand record is read before the value check, so
  // the offset points just past it.
  EXPECT_EQ(result.error.offset, cls_at + 9);
}

TEST(DecodeError, OversizedBufferReportsOversized) {
  std::vector<std::uint8_t> huge(kMaxWireSize + 1, 0);
  const auto result = decode_nsu(huge);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error.status, DecodeStatus::kOversized);
}

TEST(DecodeError, ToStringNamesStatusAndSection) {
  const DecodeError err{DecodeStatus::kBadCount, 24, kSectionLinks};
  const auto text = err.to_string();
  EXPECT_NE(text.find("bad-count"), std::string::npos) << text;
  EXPECT_NE(text.find("links"), std::string::npos) << text;
  EXPECT_NE(text.find("24"), std::string::npos) << text;
}

TEST(Wire, SkipsKnownSectionTrailerForForwardCompat) {
  // A newer controller appends extra bytes *inside* a known section
  // (after the records the length field accounts for): current decoders
  // must keep the records and skip the trailer.
  std::vector<std::uint8_t> bytes;
  auto push_u16 = [&](std::uint16_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  auto push_u32 = [&](std::uint32_t v) {
    push_u16(static_cast<std::uint16_t>(v));
    push_u16(static_cast<std::uint16_t>(v >> 16));
  };
  push_u32(kWireMagic);
  push_u16(kWireVersion);
  push_u32(11);  // origin
  push_u32(5);   // seq lo
  push_u32(0);   // seq hi
  push_u16(kSectionPrefixes);
  push_u32(4 + 5 + 3);  // count + one prefix + a 3-byte trailer
  push_u32(1);
  push_u32(topo::parse_ipv4("10.9.0.0"));
  bytes.push_back(16);
  bytes.insert(bytes.end(), {0xAA, 0xBB, 0xCC});

  const auto result = decode_nsu(bytes);
  ASSERT_TRUE(result) << result.error.to_string();
  EXPECT_EQ(result.nsu->origin, 11u);
  EXPECT_EQ(result.nsu->seq, 5u);
  ASSERT_EQ(result.nsu->prefixes.size(), 1u);
  EXPECT_EQ(result.nsu->prefixes[0].len, 16u);
}

TEST(Wire, RejectsInvalidPriorityClass) {
  NodeStateUpdate nsu;
  nsu.origin = 1;
  nsu.seq = 1;
  nsu.demands.push_back({2, PriorityClass::kHigh, 1.0});
  auto bytes = serialize_nsu(nsu);
  // Corrupt the priority byte (egress u32 follows the demand count u32 in
  // the demands section); find it by scanning for the only 0x00 class
  // byte pattern -- simpler: flip every byte one at a time and require
  // that no single-byte corruption ever crashes (and this specific field
  // gets rejected somewhere in the sweep).
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] = 0x6B;
    const auto parsed = decode_nsu(corrupt).nsu;  // must not crash
    if (!parsed.has_value()) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(Wire, SkipsUnknownSectionsForForwardCompat) {
  // A future controller appends a section type we don't know: current
  // parsers must skip it and keep everything else.
  auto bytes = serialize_nsu(sample_nsu());
  const std::uint16_t future_type = 0x7777;
  bytes.push_back(static_cast<std::uint8_t>(future_type));
  bytes.push_back(static_cast<std::uint8_t>(future_type >> 8));
  const std::uint32_t len = 3;
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  bytes.insert(bytes.end(), {0xAA, 0xBB, 0xCC});
  const auto back = decode_nsu(bytes).nsu;
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(nsu_equal(sample_nsu(), *back));
}

TEST(Wire, FuzzRandomBuffersNeverCrash) {
  util::Rng rng(0xF422);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> garbage(
        static_cast<std::size_t>(rng.uniform_int(0, 256)));
    for (auto& b : garbage)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)decode_nsu(garbage).nsu;  // must neither crash nor hang
  }
  SUCCEED();
}

TEST(Wire, FuzzMutatedValidBuffersNeverCrash) {
  const auto bytes = serialize_nsu(sample_nsu());
  util::Rng rng(0xF423);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 4));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto parsed = decode_nsu(mutated).nsu;
    // Anything that *does* parse must still pass the semantic validator
    // or be rejected by it -- either way, no crash and no acceptance of
    // structurally inconsistent data downstream.
    if (parsed) (void)validate_nsu(*parsed);
  }
  SUCCEED();
}

TEST(Wire, RejectsMessagesAboveSizeCap) {
  std::vector<std::uint8_t> huge(kMaxWireSize + 1, 0);
  EXPECT_FALSE(decode_nsu(huge).nsu.has_value());
}

TEST(Wire, SizeTracksWireSizeEstimate) {
  // nsu_wire_size() is the back-of-envelope used for the footnote-3
  // overhead math; the real encoding should be in the same ballpark.
  const auto nsu = sample_nsu();
  const auto actual = serialize_nsu(nsu).size();
  const auto estimate = nsu_wire_size(nsu);
  EXPECT_GT(actual, estimate / 3);
  EXPECT_LT(actual, estimate * 3);
}

}  // namespace
}  // namespace dsdn::core
