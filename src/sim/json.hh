/**
 * @file
 * The one JSON writer behind every report the simulator exports
 * (--stats-json, --telemetry, --analyze, --trace-critical,
 * --campaign-json, --bench-json). Layout rule (DESIGN.md §9):
 *
 *  - A Block container puts each member on its own line, indented two
 *    spaces per enclosing Block container; its closing bracket goes on
 *    a line of its own, one level out.
 *  - An Inline container separates members with ", ".
 *  - ": " follows every key; an empty container is "{}" or "[]"; a
 *    document ends with a newline.
 *
 * Strings escape '"', '\' and every byte below 0x20. Doubles print as
 * "%.17g", or null when non-finite; integers print as they are.
 */

#ifndef TT_SIM_JSON_HH
#define TT_SIM_JSON_HH

#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tt
{

class Histogram;

class JsonWriter
{
  public:
    enum Layout { Block, Inline };

    explicit JsonWriter(std::ostream& os) : _os(os) {}

    /** A `{...}` whose members @p body writes. */
    template <class Body>
    void
    object(Layout layout, Body&& body)
    {
        open('{', layout);
        body();
        close('}');
    }

    template <class Body>
    void
    array(Layout layout, Body&& body)
    {
        open('[', layout);
        body();
        close(']');
    }

    /** Start an object member; what is written next is its value. */
    JsonWriter& key(std::string_view k);

    void value(std::string_view s);
    void value(const char* s) { value(std::string_view(s)); }
    void value(double v);
    void value(bool b);

    template <class T, std::enable_if_t<std::is_integral_v<T> &&
                                            !std::is_same_v<T, bool>,
                                        int> = 0>
    void
    value(T v)
    {
        separate();
        _os << v;
    }

    template <class T>
    void
    field(std::string_view k, const T& v)
    {
        key(k).value(v);
    }

    /** @p h's width, buckets, underflow and overflow members. */
    void histogramFields(const Histogram& h);

  private:
    struct Frame
    {
        bool block;
        bool empty = true;
    };

    /** The comma, newline and indent owed before the next member. */
    void separate();
    void open(char bracket, Layout layout);
    void close(char bracket);

    std::ostream& _os;
    std::vector<Frame> _frames;
    int _blocks = 0;        ///< Block frames open
    bool _afterKey = false; ///< a key was written; its value is next
};

/**
 * Open @p path, hand the stream to @p write and close it. False when
 * the file cannot be opened or a write to it fails.
 */
bool writeJsonFile(const std::string& path,
                   const std::function<void(std::ostream&)>& write);

} // namespace tt

#endif // TT_SIM_JSON_HH
