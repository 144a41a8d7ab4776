#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "catalog/value.h"
#include "common/serde.h"
#include "storage/row_store.h"

namespace vbtree {
namespace {

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
}

TEST(ValueTest, CompareWithinType) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Double(-1).Compare(Value::Double(0)), 0);
}

TEST(ValueTest, CrossTypeOrderingIsTotal) {
  EXPECT_LT(Value::Int(999).Compare(Value::Str("a")), 0);
  EXPECT_GT(Value::Str("a").Compare(Value::Double(1e18)), 0);
}

TEST(ValueTest, SerializeRoundTrip) {
  ByteWriter w;
  Value::Int(-123).Serialize(&w);
  Value::Double(1.25).Serialize(&w);
  Value::Str("abc").Serialize(&w);
  ByteReader r(Slice(w.buffer()));
  EXPECT_EQ(Value::Deserialize(&r, TypeId::kInt64)->AsInt(), -123);
  EXPECT_EQ(Value::Deserialize(&r, TypeId::kDouble)->AsDouble(), 1.25);
  EXPECT_EQ(Value::Deserialize(&r, TypeId::kString)->AsString(), "abc");
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueTest, SerializedSizeMatchesActual) {
  for (const Value& v :
       {Value::Int(5), Value::Double(3.14), Value::Str(""),
        Value::Str("four"), Value::Str(std::string(200, 'q'))}) {
    ByteWriter w;
    v.Serialize(&w);
    EXPECT_EQ(v.SerializedSize(), w.size()) << v.ToString();
  }
}

TEST(SchemaTest, ColumnLookup) {
  Schema s({{"id", TypeId::kInt64}, {"name", TypeId::kString}});
  EXPECT_EQ(*s.ColumnIndex("name"), 1u);
  EXPECT_TRUE(s.ColumnIndex("nope").status().IsNotFound());
}

TEST(SchemaTest, KeyValidation) {
  EXPECT_TRUE(Schema({{"id", TypeId::kInt64}}).HasValidKey());
  EXPECT_FALSE(Schema({{"id", TypeId::kString}}).HasValidKey());
  EXPECT_FALSE(Schema().HasValidKey());
}

TEST(SchemaTest, SerializeRoundTrip) {
  Schema s({{"id", TypeId::kInt64},
            {"price", TypeId::kDouble},
            {"name", TypeId::kString}});
  ByteWriter w;
  s.Serialize(&w);
  ByteReader r(Slice(w.buffer()));
  auto back = Schema::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == s);
}

TEST(SchemaTest, CorruptTypeIdRejected) {
  ByteWriter w;
  w.PutVarint(1);
  w.PutString("c");
  w.PutU8(99);  // invalid TypeId
  ByteReader r(Slice(w.buffer()));
  EXPECT_TRUE(Schema::Deserialize(&r).status().IsCorruption());
}

TEST(TupleTest, KeyIsFirstColumn) {
  Tuple t({Value::Int(42), Value::Str("x")});
  EXPECT_EQ(t.key(), 42);
  EXPECT_EQ(t.num_values(), 2u);
}

TEST(TupleTest, SerializeRoundTrip) {
  Schema s({{"id", TypeId::kInt64},
            {"w", TypeId::kDouble},
            {"n", TypeId::kString}});
  Tuple t({Value::Int(1), Value::Double(0.5), Value::Str("hello")});
  ByteWriter w;
  t.Serialize(&w);
  EXPECT_EQ(t.SerializedSize(), w.size());
  ByteReader r(Slice(w.buffer()));
  auto back = Tuple::Deserialize(&r, s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TupleTest, SetValueReplaces) {
  Tuple t({Value::Int(1), Value::Str("a")});
  t.set_value(1, Value::Str("b"));
  EXPECT_EQ(t.value(1).AsString(), "b");
}

TEST(CatalogTest, CreateAndLookup) {
  Catalog cat("mydb");
  auto id = cat.CreateTable("orders", Schema({{"id", TypeId::kInt64}}));
  ASSERT_TRUE(id.ok());
  auto info = cat.GetTable("orders");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->name, "orders");
  EXPECT_EQ((*info)->id, *id);
  EXPECT_FALSE((*info)->is_view);
  EXPECT_TRUE(cat.GetTable("nope").status().IsNotFound());
}

TEST(CatalogTest, RejectsDuplicatesAndBadKeys) {
  Catalog cat("mydb");
  ASSERT_TRUE(cat.CreateTable("t", Schema({{"id", TypeId::kInt64}})).ok());
  EXPECT_EQ(cat.CreateTable("t", Schema({{"id", TypeId::kInt64}}))
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.CreateTable("u", Schema({{"id", TypeId::kString}}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, ViewsAreMarked) {
  Catalog cat("mydb");
  ASSERT_TRUE(
      cat.CreateTable("v", Schema({{"id", TypeId::kInt64}}), true).ok());
  EXPECT_TRUE((*cat.GetTable("v"))->is_view);
}

Tuple Row(int64_t key, const std::string& name) {
  return Tuple({Value::Int(key), Value::Str(name)});
}

TEST(RowStoreTest, RowsAreAddressedByKeyAcrossStripes) {
  Schema schema({{"id", TypeId::kInt64}, {"name", TypeId::kString}});
  RowStore store(schema);
  for (int64_t k = 0; k < 100; ++k) store.Put(Row(k, "v" + std::to_string(k)));
  store.Put(Row(42, "replaced"));
  EXPECT_EQ(store.size(), 100u);
  auto got = store.Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Row(42, "replaced"));

  std::vector<int64_t> removed = store.RemoveKeyRange(10, 19);
  std::sort(removed.begin(), removed.end());
  std::vector<int64_t> expect(10);
  for (int64_t i = 0; i < 10; ++i) expect[i] = 10 + i;
  EXPECT_EQ(removed, expect);
  EXPECT_EQ(store.size(), 90u);
  EXPECT_TRUE(store.Get(15).status().IsNotFound());
  EXPECT_TRUE(store.RemoveKeyRange(10, 19).empty());

  // Scan hands out each stored row once, as the bytes Put encoded.
  std::set<int64_t> seen;
  store.Scan([&](int64_t key, Slice bytes) {
    EXPECT_TRUE(seen.insert(key).second) << key;
    ByteReader r(bytes);
    auto row = Tuple::Deserialize(&r, schema);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->key(), key);
  });
  EXPECT_EQ(seen.size(), 90u);
}

TEST(RowStoreTest, TamperRewritesOneStoredAttribute) {
  RowStore store(Schema({{"id", TypeId::kInt64}, {"name", TypeId::kString}}));
  store.Put(Row(7, "honest"));
  EXPECT_TRUE(store.TamperByKey(8, 1, Value::Str("x")).IsNotFound());
  EXPECT_EQ(store.TamperByKey(7, 2, Value::Str("x")).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store.TamperByKey(7, 1, Value::Str("EVIL")).ok());
  auto got = store.Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Row(7, "EVIL"));
}

}  // namespace
}  // namespace vbtree
