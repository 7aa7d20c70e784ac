/**
 * @file
 * trace_lint — validator for ttsim's Perfetto/Chrome trace output.
 *
 *   trace_lint trace.json [trace2.json ...]
 *
 * Checks, per file:
 *   - the file parses as a JSON object with a "traceEvents" array
 *     (schema validity; a truncated or malformed export fails here);
 *   - every event has the keys its phase requires (ph/pid/tid always;
 *     ts for non-metadata events; dur for "X" slices; id for flow
 *     events; name+args for "M" metadata);
 *   - timestamps and durations are non-negative integers;
 *   - begin/end spans balance: every "E" closes a "B" on the same
 *     track and no "B" is left open at end of file ("X" complete
 *     slices are self-balancing);
 *   - transaction flows are well-formed: per flow id exactly one
 *     start ("s"), the start precedes every other flow event of that
 *     id (both in file order and in timestamp order), and at most one
 *     finish ("f"). A finish is NOT required to be last: coherence
 *     side effects (update pushes, late acks) may legitimately carry
 *     a transaction id after its miss completed.
 *
 * Exit status: 0 = all files clean, 1 = lint errors, 2 = usage/IO.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_mini.hh"

using jmini::JsonParser;
using jmini::JsonValue;

namespace
{

// ---------------------------------------------------------------
// Lint rules
// ---------------------------------------------------------------

struct Lint
{
    const char* file;
    int errors = 0;

    void fail(std::size_t ev, const std::string& msg)
    {
        std::fprintf(stderr, "%s: event %zu: %s\n", file, ev,
                     msg.c_str());
        ++errors;
    }
};

bool
numberField(const JsonValue& ev, const char* key, double& out)
{
    const JsonValue* v = ev.find(key);
    if (!v || v->kind != JsonValue::Kind::Number)
        return false;
    out = v->number;
    return true;
}

/** Per-flow-id bookkeeping for the transaction flow rules. */
struct FlowState
{
    std::size_t starts = 0;
    std::size_t finishes = 0;
    bool sawNonStartFirst = false;
    double startTs = 0;
    double minTs = 0;
    bool any = false;
};

int
lintFile(const char* path)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "trace_lint: cannot open %s\n", path);
        return 2;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();

    JsonValue root;
    std::string err;
    if (!JsonParser(text).parse(root, err)) {
        std::fprintf(stderr, "%s: JSON parse error: %s\n", path,
                     err.c_str());
        return 1;
    }
    if (root.kind != JsonValue::Kind::Object) {
        std::fprintf(stderr, "%s: top level is not an object\n", path);
        return 1;
    }
    const JsonValue* events = root.find("traceEvents");
    if (!events || events->kind != JsonValue::Kind::Array) {
        std::fprintf(stderr, "%s: missing \"traceEvents\" array\n",
                     path);
        return 1;
    }

    Lint lint{path};
    // Open "B" spans per (pid, tid) track, for begin/end balance.
    std::map<std::pair<double, double>, std::size_t> openSpans;
    std::map<double, FlowState> flows;
    std::size_t flowEvents = 0;

    for (std::size_t i = 0; i < events->items.size(); ++i) {
        const JsonValue& ev = events->items[i];
        if (ev.kind != JsonValue::Kind::Object) {
            lint.fail(i, "event is not an object");
            continue;
        }
        const JsonValue* phv = ev.find("ph");
        if (!phv || phv->kind != JsonValue::Kind::String ||
            phv->str.size() != 1) {
            lint.fail(i, "missing or malformed \"ph\"");
            continue;
        }
        const char ph = phv->str[0];
        double pid = 0, tid = 0, ts = 0;
        if (!numberField(ev, "pid", pid))
            lint.fail(i, "missing numeric \"pid\"");
        if (!numberField(ev, "tid", tid))
            lint.fail(i, "missing numeric \"tid\"");

        if (ph == 'M') {
            if (!ev.find("name") || !ev.find("args"))
                lint.fail(i, "metadata event without name/args");
            continue;
        }
        if (!numberField(ev, "ts", ts)) {
            lint.fail(i, "missing numeric \"ts\"");
            continue;
        }
        if (ts < 0)
            lint.fail(i, "negative timestamp");

        switch (ph) {
          case 'X': {
            double dur = 0;
            if (!numberField(ev, "dur", dur))
                lint.fail(i, "complete slice without \"dur\"");
            else if (dur < 0)
                lint.fail(i, "negative duration");
            break;
          }
          case 'B':
            ++openSpans[{pid, tid}];
            break;
          case 'E': {
            auto it = openSpans.find({pid, tid});
            if (it == openSpans.end() || it->second == 0)
                lint.fail(i, "span end without a matching begin");
            else
                --it->second;
            break;
          }
          case 's':
          case 't':
          case 'f': {
            ++flowEvents;
            double id = 0;
            if (!numberField(ev, "id", id)) {
                lint.fail(i, "flow event without \"id\"");
                break;
            }
            FlowState& fs = flows[id];
            if (ph == 's') {
                ++fs.starts;
                fs.startTs = ts;
            } else {
                if (fs.starts == 0)
                    fs.sawNonStartFirst = true;
                if (ph == 'f')
                    ++fs.finishes;
            }
            if (!fs.any || ts < fs.minTs)
                fs.minTs = ts;
            fs.any = true;
            break;
          }
          case 'i':
            if (!ev.find("s"))
                lint.fail(i, "instant without scope \"s\"");
            break;
          case 'C':
            if (!ev.find("args"))
                lint.fail(i, "counter without \"args\"");
            break;
          default:
            lint.fail(i, std::string("unknown phase '") + ph + "'");
        }
    }

    for (const auto& [track, open] : openSpans) {
        if (open) {
            std::ostringstream os;
            os << open << " unclosed span(s) on tid "
               << track.second;
            lint.fail(events->items.size(), os.str());
        }
    }
    for (const auto& [id, fs] : flows) {
        std::ostringstream os;
        os << "flow " << static_cast<std::uint64_t>(id);
        if (fs.starts != 1)
            lint.fail(events->items.size(),
                      os.str() + ": expected exactly one start, got " +
                          std::to_string(fs.starts));
        if (fs.sawNonStartFirst)
            lint.fail(events->items.size(),
                      os.str() + ": flow step/finish precedes its start");
        if (fs.finishes > 1)
            lint.fail(events->items.size(),
                      os.str() + ": more than one finish");
        if (fs.starts == 1 && fs.any && fs.startTs > fs.minTs)
            lint.fail(events->items.size(),
                      os.str() + ": start timestamp after a flow event");
    }

    if (lint.errors) {
        std::fprintf(stderr, "%s: %d lint error(s)\n", path,
                     lint.errors);
        return 1;
    }
    std::printf("%s: ok (%zu events, %zu flow events, %zu flows)\n",
                path, events->items.size(), flowEvents, flows.size());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: trace_lint TRACE.json [MORE.json ...]\n");
        return 2;
    }
    int worst = 0;
    for (int i = 1; i < argc; ++i) {
        const int rc = lintFile(argv[i]);
        if (rc > worst)
            worst = rc;
    }
    return worst;
}
