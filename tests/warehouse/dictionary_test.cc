#include "src/warehouse/dictionary.h"

#include <gtest/gtest.h>

namespace sampwh {
namespace {

TEST(DictionaryTest, EncodeAssignsDenseCodes) {
  ValueDictionary dict;
  EXPECT_EQ(dict.Encode("apple"), 0);
  EXPECT_EQ(dict.Encode("banana"), 1);
  EXPECT_EQ(dict.Encode("apple"), 0);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, DecodeInvertsEncode) {
  ValueDictionary dict;
  const Value a = dict.Encode("alpha");
  const Value b = dict.Encode("beta");
  EXPECT_EQ(dict.Decode(a).value(), "alpha");
  EXPECT_EQ(dict.Decode(b).value(), "beta");
}

TEST(DictionaryTest, LookupDoesNotInsert) {
  ValueDictionary dict;
  EXPECT_TRUE(dict.Lookup("ghost").status().IsNotFound());
  EXPECT_EQ(dict.size(), 0u);
  dict.Encode("real");
  EXPECT_EQ(dict.Lookup("real").value(), 0);
}

TEST(DictionaryTest, DecodeUnknownCodeFails) {
  ValueDictionary dict;
  dict.Encode("x");
  EXPECT_TRUE(dict.Decode(5).status().IsOutOfRange());
  EXPECT_TRUE(dict.Decode(-1).status().IsOutOfRange());
}

TEST(DictionaryTest, EmptyTokenIsValid) {
  ValueDictionary dict;
  const Value code = dict.Encode("");
  EXPECT_EQ(dict.Decode(code).value(), "");
}

TEST(DictionaryTest, SerializationRoundTrip) {
  ValueDictionary dict;
  dict.Encode("one");
  dict.Encode("two");
  dict.Encode("three");
  BinaryWriter w;
  dict.SerializeTo(&w);
  BinaryReader r(w.buffer());
  const auto decoded = ValueDictionary::DeserializeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().size(), 3u);
  EXPECT_EQ(decoded.value().Lookup("two").value(), 1);
  EXPECT_EQ(decoded.value().Decode(2).value(), "three");
}

TEST(DictionaryTest, DeserializeRejectsDuplicates) {
  BinaryWriter w;
  w.PutVarint64(2);
  w.PutString("dup");
  w.PutString("dup");
  BinaryReader r(w.buffer());
  EXPECT_TRUE(
      ValueDictionary::DeserializeFrom(&r).status().IsCorruption());
}

TEST(DictionaryTest, DeserializeRejectsCountBeyondInput) {
  // A count of 2^62 tokens with one token behind it: Corruption before
  // anything is reserved for the claim (reserving it would throw).
  BinaryWriter w;
  w.PutVarint64(uint64_t{1} << 62);
  w.PutString("only");
  BinaryReader r(w.buffer());
  EXPECT_TRUE(
      ValueDictionary::DeserializeFrom(&r).status().IsCorruption());
}

TEST(DictionaryTest, ManyTokensKeepStableCodes) {
  ValueDictionary dict;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(dict.Encode("token_" + std::to_string(i)),
              static_cast<Value>(i));
  }
  // Re-encode after heavy growth (vector reallocation) stays stable.
  EXPECT_EQ(dict.Encode("token_123"), 123);
  EXPECT_EQ(dict.Decode(4999).value(), "token_4999");
}

}  // namespace
}  // namespace sampwh
