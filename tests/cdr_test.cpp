// CDR marshaling: primitives, alignment, byte orders, strings, sequences,
// tagged values, and truncation behaviour.
#include <gtest/gtest.h>

#include <ostream>

#include "cdr/cdr.hpp"
#include "cdr/value.hpp"

namespace integrade::cdr {

// gtest prints a value parameter into the test's name; print the Value
// itself rather than a dump of its bytes, which hold heap and stack
// addresses and so differ from one build to the next.
void PrintTo(const Value& value, std::ostream* os) { *os << value.to_string(); }

namespace {

class CdrBothOrders : public ::testing::TestWithParam<ByteOrder> {};

INSTANTIATE_TEST_SUITE_P(Orders, CdrBothOrders,
                         ::testing::Values(ByteOrder::kLittleEndian,
                                           ByteOrder::kBigEndian),
                         [](const auto& info) {
                           return info.param == ByteOrder::kLittleEndian
                                      ? "little"
                                      : "big";
                         });

TEST_P(CdrBothOrders, PrimitiveRoundTrip) {
  Writer w(GetParam());
  w.write_bool(true);
  w.write_u8(0xAB);
  w.write_i16(-1234);
  w.write_u16(0xBEEF);
  w.write_i32(-123456789);
  w.write_u32(0xDEADBEEF);
  w.write_i64(-1234567890123456789LL);
  w.write_u64(0xFEEDFACECAFEBEEFULL);
  w.write_f32(3.25F);
  w.write_f64(-2.718281828459045);

  Reader r(w.buffer(), GetParam());
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_i16(), -1234);
  EXPECT_EQ(r.read_u16(), 0xBEEF);
  EXPECT_EQ(r.read_i32(), -123456789);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.read_i64(), -1234567890123456789LL);
  EXPECT_EQ(r.read_u64(), 0xFEEDFACECAFEBEEFULL);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25F);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.718281828459045);
  EXPECT_TRUE(r.exhausted());
}

TEST(CdrTest, AlignmentPadsToNaturalBoundary) {
  Writer w;
  w.write_u8(1);    // offset 0
  w.write_u32(2);   // pads to 4
  EXPECT_EQ(w.size(), 8u);  // 1 + 3 pad + 4
  w.write_u8(3);    // offset 8
  w.write_u64(4);   // pads to 16
  EXPECT_EQ(w.size(), 24u);

  Reader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 1);
  EXPECT_EQ(r.read_u32(), 2u);
  EXPECT_EQ(r.read_u8(), 3);
  EXPECT_EQ(r.read_u64(), 4u);
  EXPECT_TRUE(r.exhausted());
}

TEST(CdrTest, StringIncludesNulOnWire) {
  Writer w;
  w.write_string("abc");
  // u32 length (4, incl NUL) + 'a' 'b' 'c' '\0'
  EXPECT_EQ(w.size(), 8u);
  Reader r(w.buffer());
  EXPECT_EQ(r.read_string(), "abc");
  EXPECT_TRUE(r.exhausted());
}

TEST(CdrTest, EmptyStringRoundTrip) {
  Writer w;
  w.write_string("");
  Reader r(w.buffer());
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.ok());
}

TEST(CdrTest, OctetsRoundTrip) {
  Writer w;
  std::vector<std::uint8_t> data{0, 1, 2, 255, 254};
  w.write_octets(data);
  Reader r(w.buffer());
  EXPECT_EQ(r.read_octets(), data);
  EXPECT_TRUE(r.exhausted());
}

TEST(CdrTest, TruncatedBufferLatchesError) {
  Writer w;
  w.write_i64(42);
  auto buf = w.take_buffer();
  buf.resize(4);  // cut the payload in half
  Reader r(buf);
  (void)r.read_i64();
  EXPECT_FALSE(r.ok());
  // Every later read also fails and returns zero values.
  EXPECT_EQ(r.read_u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(CdrTest, TruncatedStringLatchesError) {
  Writer w;
  w.write_string("hello world");
  auto buf = w.take_buffer();
  buf.resize(6);
  Reader r(buf);
  (void)r.read_string();
  EXPECT_FALSE(r.ok());
}

TEST(CdrTest, IdRoundTrip) {
  Writer w;
  w.write_id(NodeId(7));
  w.write_id(TaskId());  // invalid
  Reader r(w.buffer());
  EXPECT_EQ(r.read_id<NodeTag>(), NodeId(7));
  EXPECT_FALSE(r.read_id<TaskTag>().valid());
}

// --- Value (tagged any) ---

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(2.5).is_real());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(ValueList{Value(1), Value(2)}).is_list());
  EXPECT_TRUE(Value(7).is_numeric());
  EXPECT_TRUE(Value(2.5).is_numeric());
  EXPECT_FALSE(Value("x").is_numeric());
}

TEST(ValueTest, NumericCrossKindEquality) {
  EXPECT_EQ(Value(3), Value(3.0));
  EXPECT_NE(Value(3), Value(3.5));
  EXPECT_NE(Value(3), Value("3"));
  EXPECT_NE(Value(true), Value(1));  // bool is not numeric
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(7).to_string(), "7");
  EXPECT_EQ(Value("hi").to_string(), "'hi'");
  EXPECT_EQ(Value(ValueList{Value(1), Value("a")}).to_string(), "[1, 'a']");
}

class ValueRoundTrip : public ::testing::TestWithParam<Value> {};

INSTANTIATE_TEST_SUITE_P(
    Values, ValueRoundTrip,
    ::testing::Values(Value(), Value(true), Value(false), Value(0),
                      Value(-42), Value(std::int64_t{1} << 62), Value(3.14159),
                      Value(""), Value("hello"),
                      Value(ValueList{}),
                      Value(ValueList{Value(1), Value("two"), Value(3.0),
                                      Value(ValueList{Value(true)})})));

TEST_P(ValueRoundTrip, EncodesAndDecodes) {
  for (auto order : {ByteOrder::kLittleEndian, ByteOrder::kBigEndian}) {
    auto bytes = encode_message(GetParam(), order);
    auto decoded = decode_message<Value>(bytes, order);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), GetParam());
  }
}

TEST(TruncationSweep, ReaderLatchesCleanlyAtEveryCutOffset) {
  // Reader bounds contract: any read past a truncation latches ok()=false,
  // every subsequent read returns a zero value (empty string/octets), and
  // nothing throws — so a decoder that checks ok() once at the end never
  // commits partial state.
  Writer w;
  w.write_u32(7);
  w.write_string("snapshot-section");
  w.write_u64(0x1122334455667788ULL);
  w.write_octets({1, 2, 3, 4, 5});
  w.write_f64(2.5);
  const auto bytes = w.take_buffer();

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Reader r(bytes.data(), len);
    (void)r.read_u32();
    (void)r.read_string();
    (void)r.read_u64();
    (void)r.read_octets();
    (void)r.read_f64();
    EXPECT_FALSE(r.ok()) << "cut at " << len << " read past the end";
    // Latched: everything after the failure is zero, and stays failed.
    EXPECT_EQ(r.read_u32(), 0u);
    EXPECT_EQ(r.read_u64(), 0u);
    EXPECT_TRUE(r.read_string().empty());
    EXPECT_TRUE(r.read_octets().empty());
    EXPECT_FALSE(r.ok());
  }

  // The untruncated buffer reads back exactly.
  Reader full(bytes.data(), bytes.size());
  EXPECT_EQ(full.read_u32(), 7u);
  EXPECT_EQ(full.read_string(), "snapshot-section");
  EXPECT_EQ(full.read_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(full.read_octets(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(full.read_f64(), 2.5);
  EXPECT_TRUE(full.exhausted());
}

TEST(TruncationSweep, OversizedLengthPrefixesFailWithoutAllocating) {
  // A corrupted length prefix must not make the reader trust it: a string
  // or sequence header claiming more bytes than remain fails cleanly
  // instead of allocating gigabytes or reading out of bounds.
  Writer w;
  w.write_u32(0x7fffffff);  // absurd element count / length
  const auto bytes = w.take_buffer();
  Reader r(bytes.data(), bytes.size());
  EXPECT_TRUE(r.read_string().empty());
  EXPECT_FALSE(r.ok());

  Reader r2(bytes.data(), bytes.size());
  EXPECT_TRUE(r2.read_octets().empty());
  EXPECT_FALSE(r2.ok());
}

TEST(ValueTest, CorruptTagDecodesWithoutCrash) {
  auto bytes = encode_message(Value(7));
  bytes[0] = 99;  // invalid tag
  auto decoded = decode_message<Value>(bytes);
  // Either an error or a null value is acceptable; no crash, no UB.
  if (decoded.is_ok()) {
    EXPECT_TRUE(decoded.value().is_null());
  }
}

// `lists` nested one-element lists around a null, written byte by byte so
// building the frame does not recurse.
std::vector<std::uint8_t> nested_list_frame(int lists) {
  Writer w;
  for (int i = 0; i < lists; ++i) {
    w.write_u8(static_cast<std::uint8_t>(ValueKind::kList));
    w.write_u32(1);
  }
  w.write_u8(static_cast<std::uint8_t>(ValueKind::kNull));
  return w.take_buffer();
}

TEST(ValueTest, DeeplyNestedListFrameFailsInsteadOfExhaustingTheStack) {
  // 50,000 levels in a 400 KB frame: unbounded recursion overflows an
  // 8 MiB stack long before the bytes run out.
  EXPECT_FALSE(decode_message<Value>(nested_list_frame(50000)).is_ok());
}

TEST(ValueTest, ListNestingDecodesUpToTheDepthCap) {
  EXPECT_TRUE(decode_message<Value>(nested_list_frame(kMaxValueDepth - 1)).is_ok());
  EXPECT_FALSE(decode_message<Value>(nested_list_frame(kMaxValueDepth)).is_ok());
}

TEST(ValueTest, UnknownTagFailsDecode) {
  EXPECT_FALSE(decode_message<Value>(std::vector<std::uint8_t>{200}).is_ok());
}

}  // namespace
}  // namespace integrade::cdr
