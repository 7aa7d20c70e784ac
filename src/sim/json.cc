#include "sim/json.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tt
{

void
JsonWriter::separate()
{
    if (_afterKey || _frames.empty()) {
        _afterKey = false;
        return;
    }
    Frame& f = _frames.back();
    if (!f.empty)
        _os << (f.block ? "," : ", ");
    if (f.block)
        _os << '\n' << std::string(2 * _blocks, ' ');
    f.empty = false;
}

void
JsonWriter::open(char bracket, Layout layout)
{
    separate();
    _os << bracket;
    _frames.push_back(Frame{layout == Block});
    _blocks += layout == Block;
}

void
JsonWriter::close(char bracket)
{
    tt_assert(!_frames.empty() && !_afterKey, "unbalanced JSON writer");
    const Frame f = _frames.back();
    _frames.pop_back();
    _blocks -= f.block;
    if (f.block && !f.empty)
        _os << '\n' << std::string(2 * _blocks, ' ');
    _os << bracket;
    if (_frames.empty())
        _os << '\n';
}

JsonWriter&
JsonWriter::key(std::string_view k)
{
    tt_assert(!_frames.empty() && !_afterKey, "misplaced JSON key");
    value(k);
    _os << ": ";
    _afterKey = true;
    return *this;
}

void
JsonWriter::value(std::string_view s)
{
    separate();
    _os << '"';
    for (const char ch : s) {
        const auto u = static_cast<unsigned char>(ch);
        if (ch == '"' || ch == '\\') {
            _os << '\\' << ch;
        } else if (u >= 0x20) {
            _os << ch;
        } else {
            const char* named = nullptr;
            switch (ch) {
              case '\n': named = "\\n"; break;
              case '\t': named = "\\t"; break;
              case '\r': named = "\\r"; break;
              case '\b': named = "\\b"; break;
              case '\f': named = "\\f"; break;
            }
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", u);
            _os << (named ? named : buf);
        }
    }
    _os << '"';
}

void
JsonWriter::value(double v)
{
    separate();
    // JSON has no NaN or Infinity literal.
    if (!std::isfinite(v)) {
        _os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    _os << buf;
}

void
JsonWriter::value(bool b)
{
    separate();
    _os << (b ? "true" : "false");
}

void
JsonWriter::histogramFields(const Histogram& h)
{
    field("width", h.width());
    key("buckets").array(Inline, [&] {
        for (const std::uint64_t b : h.buckets())
            value(b);
    });
    field("underflow", h.underflow());
    field("overflow", h.overflow());
}

bool
writeJsonFile(const std::string& path,
              const std::function<void(std::ostream&)>& write)
{
    std::ofstream f(path);
    if (!f)
        return false;
    write(f);
    f.close();
    return !f.fail();
}

} // namespace tt
