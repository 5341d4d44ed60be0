#include "common/diagnostics.hpp"

#include <sstream>

#include "common/error.hpp"

namespace extradeep {

std::string_view severity_name(Severity severity) {
    switch (severity) {
        case Severity::Info: return "info";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    throw InvalidArgumentError("severity_name: unknown severity");
}

void DiagnosticLog::add(Severity severity, std::string reason, long long line,
                        int rank) {
    Diagnostic d;
    d.severity = severity;
    d.reason = std::move(reason);
    d.line = line;
    d.rank = rank;
    add(std::move(d));
}

void DiagnosticLog::add(Diagnostic d) {
    ++total_;
    ++counts_[static_cast<int>(d.severity)];
    if (entries_.size() < capacity_) {
        entries_.push_back(std::move(d));
    }
}

void DiagnosticLog::merge(const DiagnosticLog& other,
                          std::string_view scope) {
    for (const auto& d : other.entries_) {
        if (entries_.size() == capacity_) {
            break;
        }
        entries_.push_back(d);
        entries_.back().reason.insert(0, scope);
    }
    total_ += other.total_;
    for (int i = 0; i < 3; ++i) {
        counts_[i] += other.counts_[i];
    }
}

std::size_t DiagnosticLog::count(Severity severity) const {
    return counts_[static_cast<int>(severity)];
}

std::string DiagnosticLog::summary() const {
    if (total_ == 0) {
        return "clean";
    }
    std::ostringstream os;
    bool first = true;
    const Severity order[] = {Severity::Error, Severity::Warning,
                              Severity::Info};
    const char* plural[] = {"infos", "warnings", "errors"};
    for (const Severity s : order) {
        const std::size_t n = count(s);
        if (n == 0) continue;
        if (!first) os << ", ";
        first = false;
        if (n == 1) {
            os << "1 " << severity_name(s);
        } else {
            os << n << ' ' << plural[static_cast<int>(s)];
        }
    }
    return os.str();
}

}  // namespace extradeep
