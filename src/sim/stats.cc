#include "sim/stats.hh"

#include <iomanip>

#include "sim/json.hh"

namespace tt
{

void
StatSet::dump(std::ostream& os) const
{
    for (const auto& [name, c] : _counters)
        os << std::left << std::setw(48) << name << c.value() << "\n";
    for (const auto& [name, a] : _averages) {
        os << std::left << std::setw(48) << name << "mean=" << a.mean()
           << " n=" << a.count() << " min=" << a.min()
           << " max=" << a.max() << "\n";
    }
    for (const auto& [name, h] : _histograms) {
        os << std::left << std::setw(48) << name
           << "mean=" << h.summary().mean()
           << " n=" << h.summary().count()
           << " overflow=" << h.overflow() << "\n";
    }
}

void
StatSet::writeJson(std::ostream& os) const
{
    JsonWriter w(os);
    auto average = [&w](const Average& a) {
        w.field("mean", a.mean());
        w.field("count", a.count());
        w.field("min", a.min());
        w.field("max", a.max());
        w.field("variance", a.variance());
        w.field("stddev", a.stddev());
    };
    w.object(JsonWriter::Block, [&] {
        w.key("counters").object(JsonWriter::Block, [&] {
            for (const auto& [name, c] : _counters)
                w.field(name, c.value());
        });
        w.key("averages").object(JsonWriter::Block, [&] {
            for (const auto& [name, a] : _averages)
                w.key(name).object(JsonWriter::Inline,
                                   [&] { average(a); });
        });
        w.key("histograms").object(JsonWriter::Block, [&] {
            for (const auto& [name, h] : _histograms) {
                w.key(name).object(JsonWriter::Inline, [&] {
                    w.histogramFields(h);
                    w.key("summary").object(JsonWriter::Inline,
                                            [&] { average(h.summary()); });
                });
            }
        });
    });
}

void
StatSet::reset()
{
    for (auto& [name, c] : _counters)
        c.reset();
    for (auto& [name, a] : _averages)
        a.reset();
    for (auto& [name, h] : _histograms)
        h.reset();
}

} // namespace tt
