// Unit + property tests: binary wire format, Serde<T>, KV streams, CRC32.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serde/checksum.hpp"
#include "serde/kv.hpp"
#include "serde/serde.hpp"
#include "serde/wire.hpp"

namespace asyncmr::serde {
namespace {

TEST(Wire, ZigzagRoundTrip) {
  for (int64_t v : {0L, 1L, -1L, 63L, -64L, (int64_t)1e15, -(int64_t)1e15,
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(Wire, VarintSmallValuesAreOneByte) {
  Buffer buf;
  Writer w(buf);
  w.WriteVarU64(127);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Wire, VarintRoundTrip) {
  Rng rng(1);
  Buffer buf;
  Writer w(buf);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.NextBounded(64));
    values.push_back(v);
    w.WriteVarU64(v);
  }
  Reader r(buf);
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.ReadVarU64(got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, TruncatedVarintFails) {
  Buffer buf;
  buf.AppendByte(0x80);  // continuation bit with no next byte
  Reader r(buf);
  uint64_t v;
  EXPECT_EQ(r.ReadVarU64(v).code(), StatusCode::kDataLoss);
}

TEST(Wire, TruncatedStringFails) {
  Buffer buf;
  Writer w(buf);
  w.WriteVarU64(100);  // claims 100 bytes, provides none
  Reader r(buf);
  std::string s;
  EXPECT_EQ(r.ReadString(s).code(), StatusCode::kDataLoss);
}

TEST(Wire, ReadPastEndFails) {
  Buffer buf;
  Writer w(buf);
  w.WriteU32(7);
  Reader r(buf);
  uint64_t v;
  EXPECT_FALSE(r.ReadU64(v).ok());
}

TEST(Serde, ScalarRoundTrips) {
  EXPECT_EQ(Decode<int32_t>(Encode<int32_t>(-12345)).value(), -12345);
  EXPECT_EQ(Decode<uint64_t>(Encode<uint64_t>(1ull << 60)).value(), 1ull << 60);
  EXPECT_EQ(Decode<bool>(Encode<bool>(true)).value(), true);
  EXPECT_DOUBLE_EQ(Decode<double>(Encode<double>(3.14159)).value(), 3.14159);
  EXPECT_FLOAT_EQ(Decode<float>(Encode<float>(2.5f)).value(), 2.5f);
}

TEST(Serde, StringRoundTrip) {
  const std::string s = "hello \0 world";
  EXPECT_EQ(Decode<std::string>(Encode(s)).value(), s);
}

TEST(Serde, PairAndVectorRoundTrip) {
  using T = std::vector<std::pair<uint32_t, double>>;
  const T v{{1, 0.5}, {7, -2.0}, {42, 1e9}};
  EXPECT_EQ(Decode<T>(Encode(v)).value(), v);
}

TEST(Serde, NestedVectorRoundTrip) {
  using T = std::vector<std::vector<std::string>>;
  const T v{{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(Decode<T>(Encode(v)).value(), v);
}

TEST(Serde, TrailingBytesRejected) {
  Buffer buf = Encode<uint32_t>(5);
  buf.AppendByte(0);
  EXPECT_EQ(Decode<uint32_t>(buf).status().code(), StatusCode::kDataLoss);
}

TEST(Serde, CorruptVectorLengthRejectedForAllElementTypes) {
  // A length prefix beyond the remaining payload is corruption and must be
  // rejected up front — for vector<bool> too, which the old nested guard
  // silently skipped (so a hostile length reached reserve()).
  Buffer buf;
  Writer w(buf);
  w.WriteVarU64(uint64_t{1} << 40);  // claims ~10^12 elements, no payload
  EXPECT_EQ(Decode<std::vector<bool>>(buf).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(Decode<std::vector<uint8_t>>(buf).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(Decode<std::vector<double>>(buf).status().code(),
            StatusCode::kDataLoss);
}

TEST(Serde, EncodedSizeMatchesEncodeWithoutEncoding) {
  const std::vector<std::string> v{"alpha", "", "beta"};
  EXPECT_EQ(EncodedSize(v), Encode(v).size());
  const std::pair<uint32_t, double> p{7, 0.25};
  EXPECT_EQ(EncodedSize(p), Encode(p).size());
  EXPECT_EQ(EncodedSize(true), Encode(true).size());
  EXPECT_EQ(EncodedSize(uint64_t{1} << 40), Encode(uint64_t{1} << 40).size());
}

struct TestRecord {
  uint32_t node = 0;
  double rank = 0.0;
  std::string tag;
  std::vector<int32_t> path;
  AMR_SERDE_FIELDS(node, rank, tag, path)
  bool operator==(const TestRecord&) const = default;
};

TEST(Serde, UserStructRoundTrip) {
  TestRecord rec{42, 0.85, "hub", {1, -2, 3}};
  EXPECT_EQ(Decode<TestRecord>(Encode(rec)).value(), rec);
}

TEST(Serde, PropertyRandomRoundTrips) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    TestRecord rec;
    rec.node = static_cast<uint32_t>(rng.Next());
    rec.rank = rng.NextDouble(-1e6, 1e6);
    rec.tag.assign(rng.NextBounded(32), 'x');
    const size_t len = rng.NextBounded(16);
    for (size_t i = 0; i < len; ++i) {
      rec.path.push_back(static_cast<int32_t>(rng.Next()));
    }
    EXPECT_EQ(Decode<TestRecord>(Encode(rec)).value(), rec);
  }
}

TEST(KvStream, WriteReadRoundTrip) {
  KvWriter<uint32_t, double> w;
  for (uint32_t i = 0; i < 100; ++i) w.Add(i, i * 0.5);
  EXPECT_EQ(w.count(), 100u);
  Buffer buf = std::move(w).Finish();

  KvReader<uint32_t, double> r(buf);
  EXPECT_EQ(r.count(), 100u);
  uint32_t k;
  double v;
  uint32_t expected = 0;
  while (r.Next(k, v)) {
    EXPECT_EQ(k, expected);
    EXPECT_DOUBLE_EQ(v, expected * 0.5);
    ++expected;
  }
  EXPECT_EQ(expected, 100u);
  EXPECT_TRUE(r.status().ok());
}

TEST(KvStream, ResetReusesWriterAndFinishBytesAreCanonical) {
  // Finish() prepends the header into the record buffer and moves it out —
  // the bytes must match a freshly encoded stream, and Reset() must allow
  // reuse with identical output.
  auto encode_fresh = [] {
    KvWriter<uint32_t, double> w;
    for (uint32_t i = 0; i < 300; ++i) w.Add(i, 1.5 * i);
    return std::move(w).Finish();
  };
  KvWriter<uint32_t, double> reused;
  reused.Add(9, 9.0);
  reused.Reset();
  EXPECT_EQ(reused.count(), 0u);
  EXPECT_EQ(reused.byte_size(), 0u);
  for (uint32_t i = 0; i < 300; ++i) reused.Add(i, 1.5 * i);
  EXPECT_EQ(std::move(reused).Finish(), encode_fresh());
}

TEST(KvStream, ReadAllMatchesEncode) {
  const std::vector<std::pair<std::string, uint64_t>> records{
      {"alpha", 1}, {"beta", 2}, {"", 3}};
  Buffer buf = EncodeKvStream(records);
  KvReader<std::string, uint64_t> r(buf);
  EXPECT_EQ(r.ReadAll().value(), records);
}

TEST(KvStream, CorruptedStreamReportsDataLoss) {
  KvWriter<uint32_t, std::string> w;
  w.Add(1, "abcdefgh");
  w.Add(2, "ijklmnop");
  Buffer buf = std::move(w).Finish();
  // Truncate mid-record. The buffer must outlive the reader (KvReader holds
  // a view, not a copy — it refuses temporaries for exactly this reason).
  const Buffer truncated{
      std::vector<uint8_t>(buf.bytes().begin(), buf.bytes().end() - 5)};
  KvReader<uint32_t, std::string> r(truncated);
  EXPECT_FALSE(r.ReadAll().ok());
}

TEST(KvStream, EmptyStream) {
  KvWriter<uint32_t, uint32_t> w;
  Buffer buf = std::move(w).Finish();
  KvReader<uint32_t, uint32_t> r(buf);
  EXPECT_EQ(r.count(), 0u);
  EXPECT_TRUE(r.ReadAll().value().empty());
}

TEST(Crc32, KnownVector) {
  const std::string data = "123456789";
  const uint32_t crc =
      Crc32({reinterpret_cast<const uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(crc, 0xCBF43926u);  // standard CRC-32 check value
}

TEST(Crc32, DetectsBitFlip) {
  std::vector<uint8_t> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  const uint32_t before = Crc32(data);
  data[100] ^= 0x01;
  EXPECT_NE(before, Crc32(data));
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(Crc32({}), 0u);
}

// Bytewise reference: the polynomial applied one bit at a time, no tables.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Random lengths 0-4096 at misaligned starts cover the 8-byte main loop,
  // every tail length and unaligned loads; seeds cover chained calls.
  Rng rng(2024);
  std::vector<uint8_t> data(4096 + 16);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  for (int trial = 0; trial < 400; ++trial) {
    const size_t offset = rng.NextBounded(16);
    const size_t len = trial < 20 ? trial : rng.NextBounded(4097);
    const uint32_t seed =
        trial % 3 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    SCOPED_TRACE(testing::Message() << "offset " << offset << " len " << len);
    EXPECT_EQ(Crc32({data.data() + offset, len}, seed),
              BitwiseCrc32(data.data() + offset, len, seed));
  }
}

TEST(Crc32, ChainedCallsEqualOneCall) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37);
  }
  const std::span<const uint8_t> all(data);
  for (size_t cut : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    EXPECT_EQ(Crc32(all.subspan(cut), Crc32(all.first(cut))), Crc32(all));
  }
}

}  // namespace
}  // namespace asyncmr::serde
