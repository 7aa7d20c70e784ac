/** @file Unit tests for the JSON writer shared by every exporter. */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "tools/json_mini.hh"

namespace tt
{
namespace
{

/** The document @p body writes, run inside a fresh writer. */
template <class Body>
std::string
doc(Body&& body)
{
    std::ostringstream os;
    JsonWriter w(os);
    body(w);
    return os.str();
}

TEST(JsonWriter, EscapesQuoteBackslashAndControlBytes)
{
    const std::string out = doc([](JsonWriter& w) {
        w.array(JsonWriter::Inline, [&] {
            w.value("say \"hi\"");
            w.value("a\\b");
            w.value("line\nnext");
            w.value("col\tnext");
            w.value(std::string("ctl\x01!"));
        });
    });
    EXPECT_EQ(out, "[\"say \\\"hi\\\"\", \"a\\\\b\", \"line\\nnext\", "
                   "\"col\\tnext\", \"ctl\\u0001!\"]\n");
}

TEST(JsonWriter, NonFiniteNumbersAreNull)
{
    const std::string out = doc([](JsonWriter& w) {
        w.array(JsonWriter::Inline, [&] {
            w.value(std::numeric_limits<double>::quiet_NaN());
            w.value(std::numeric_limits<double>::infinity());
            w.value(-std::numeric_limits<double>::infinity());
            w.value(0.1);
            w.value(-7);
        });
    });
    EXPECT_EQ(out, "[null, null, null, 0.10000000000000001, -7]\n");
}

TEST(JsonWriter, EmptyContainersOfEitherLayout)
{
    EXPECT_EQ(doc([](JsonWriter& w) {
                  w.object(JsonWriter::Block, [] {});
              }),
              "{}\n");
    EXPECT_EQ(doc([](JsonWriter& w) {
                  w.array(JsonWriter::Inline, [] {});
              }),
              "[]\n");
    EXPECT_EQ(doc([](JsonWriter& w) {
                  w.object(JsonWriter::Block, [&] {
                      w.key("a").array(JsonWriter::Block, [] {});
                      w.key("o").object(JsonWriter::Inline, [] {});
                  });
              }),
              "{\n  \"a\": [],\n  \"o\": {}\n}\n");
}

TEST(JsonWriter, InlineInsideBlock)
{
    const std::string out = doc([](JsonWriter& w) {
        w.object(JsonWriter::Block, [&] {
            w.field("n", 1);
            w.key("pair").object(JsonWriter::Inline, [&] {
                w.field("x", 2);
                w.field("ok", true);
            });
            w.key("rows").array(JsonWriter::Block, [&] {
                w.array(JsonWriter::Inline, [&] {
                    w.value(3);
                    w.value(4);
                });
                w.value("s");
            });
        });
    });
    EXPECT_EQ(out, R"({
  "n": 1,
  "pair": {"x": 2, "ok": true},
  "rows": [
    [3, 4],
    "s"
  ]
}
)");
}

TEST(JsonWriter, BlockInsideInline)
{
    // Only Block containers count toward the indent, so a Block array
    // under an Inline object indents as if the object were not there.
    const std::string out = doc([](JsonWriter& w) {
        w.object(JsonWriter::Block, [&] {
            w.key("outer").object(JsonWriter::Inline, [&] {
                w.field("k", "v");
                w.key("list").array(JsonWriter::Block, [&] {
                    w.value(1);
                    w.object(JsonWriter::Inline,
                             [&] { w.field("y", false); });
                });
            });
        });
    });
    EXPECT_EQ(out, R"({
  "outer": {"k": "v", "list": [
    1,
    {"y": false}
  ]}
}
)");
}

TEST(JsonWriter, StringsRoundTripThroughParser)
{
    std::string all;
    for (int c = 1; c < 0x80; ++c)
        all += static_cast<char>(c);
    const std::string strings[] = {
        "", "plain", "quote \" and backslash \\", "tab\tnl\ncr\rbs\bff\f",
        all, "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80",
    };
    const std::string out = doc([&](JsonWriter& w) {
        w.object(JsonWriter::Block, [&] {
            for (const std::string& s : strings)
                w.field(s, s);
        });
    });

    jmini::JsonValue v;
    std::string err;
    ASSERT_TRUE(jmini::JsonParser(out).parse(v, err)) << err << "\n"
                                                     << out;
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.fields.size(), std::size(strings));
    for (std::size_t i = 0; i < std::size(strings); ++i) {
        EXPECT_EQ(v.fields[i].first, strings[i]);
        ASSERT_TRUE(v.fields[i].second.isString());
        EXPECT_EQ(v.fields[i].second.str, strings[i]);
    }
}

TEST(JsonMini, DecodesUnicodeEscapesToUtf8)
{
    // U+0001, U+00E9, U+2192 and U+1F600 (a surrogate pair), then
    // upper- and lower-case hex digits.
    const std::string text =
        R"(["\u0001\u00e9\u2192\ud83d\ude00", "\u004A\u006a"])";
    jmini::JsonValue v;
    std::string err;
    ASSERT_TRUE(jmini::JsonParser(text).parse(v, err)) << err;
    ASSERT_EQ(v.items.size(), 2u);
    EXPECT_EQ(v.items[0].str, "\x01\xc3\xa9\xe2\x86\x92\xf0\x9f\x98\x80");
    EXPECT_EQ(v.items[1].str, "Jj");
    EXPECT_FALSE(jmini::JsonParser(R"(["\u00g1"])").parse(v, err));
    EXPECT_FALSE(jmini::JsonParser(R"(["\u00"])").parse(v, err));
}

TEST(WriteJsonFile, ReportsUnwritablePath)
{
    EXPECT_FALSE(writeJsonFile("no_such_dir/x.json",
                               [](std::ostream& os) { os << "{}\n"; }));
}

} // namespace
} // namespace tt
