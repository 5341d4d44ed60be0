// Self-time attribution over the spans of a traced run: a span's self time
// is its duration minus the part of it covered by its child spans (children
// may overlap, e.g. parallel hypothesis chunks, so coverage is the union).

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/table.hpp"
#include "ledger.hpp"

namespace ledger {

namespace {

struct Interval {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/// Length of the union of `intervals` clipped to [begin, end).
std::uint64_t covered_ns(std::vector<Interval>& intervals,
                         std::uint64_t begin, std::uint64_t end) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
              });
    std::uint64_t covered = 0;
    std::uint64_t cursor = begin;
    for (const Interval& iv : intervals) {
        const std::uint64_t lo = std::max(iv.begin, cursor);
        const std::uint64_t hi = std::min(iv.end, end);
        if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
        }
    }
    return covered;
}

}  // namespace

const SpanTable::Row& SpanTable::row(const std::string& name) const {
    static const Row kEmpty;
    const auto it = rows.find(name);
    return it == rows.end() ? kEmpty : it->second;
}

double SpanTable::self_ms(std::initializer_list<const char*> names) const {
    double total = 0.0;
    for (const char* name : names) {
        total += row(name).self_ms;
    }
    return total;
}

double SpanTable::p50_us(const std::string& name) const {
    return median(row(name).durations_us);
}

std::string SpanTable::to_text() const {
    std::vector<std::pair<std::string, const Row*>> sorted;
    for (const auto& [name, r] : rows) {
        sorted.emplace_back(name, &r);
    }
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.second->self_ms != b.second->self_ms
                   ? a.second->self_ms > b.second->self_ms
                   : a.first < b.first;
    });
    ed::Table table({"span", "count", "total_ms", "self_ms", "p50_us"});
    for (const auto& [name, r] : sorted) {
        std::ostringstream count, total, self, p50;
        count << r->count;
        total << r->total_ms;
        self << r->self_ms;
        p50 << median(r->durations_us);
        table.add_row({name, count.str(), total.str(), self.str(), p50.str()});
    }
    std::ostringstream os;
    os << table.to_string() << "ledger.build wall time covered by layer spans: "
       << build_attributed_pct << " %\n";
    return os.str();
}

SpanTable attribute(const std::vector<ed::obs::SpanRecord>& spans) {
    SpanTable table;
    table.spans = spans.size();
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    by_id.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        by_id.emplace(spans[i].id, i);
    }
    std::vector<std::vector<Interval>> children(spans.size());
    for (const auto& span : spans) {
        const auto parent = by_id.find(span.parent);
        if (span.parent != 0 && parent != by_id.end()) {
            children[parent->second].push_back({span.start_ns, span.end_ns});
        }
    }
    std::uint64_t build_ns = 0;
    std::uint64_t build_covered_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& span = spans[i];
        const std::uint64_t duration = span.end_ns - span.start_ns;
        const std::uint64_t covered =
            covered_ns(children[i], span.start_ns, span.end_ns);
        SpanTable::Row& row = table.rows[span.name];
        ++row.count;
        row.total_ms += static_cast<double>(duration) * 1e-6;
        row.self_ms += static_cast<double>(duration - covered) * 1e-6;
        row.durations_us.push_back(static_cast<double>(duration) * 1e-3);
        if (span.name == "ledger.build") {
            build_ns += duration;
            build_covered_ns += covered;
        }
    }
    table.build_attributed_pct =
        build_ns > 0 ? 100.0 * static_cast<double>(build_covered_ns) /
                           static_cast<double>(build_ns)
                     : 0.0;
    return table;
}

}  // namespace ledger
