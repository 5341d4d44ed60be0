#include "common/table.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/error.hpp"

namespace extradeep {

namespace {

bool looks_numeric(const std::string& s) {
    if (s.empty()) return false;
    std::size_t i = 0;
    if (s[i] == '-' || s[i] == '+') ++i;
    bool digit = false;
    for (; i < s.size(); ++i) {
        const char c = s[i];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            digit = true;
        } else if (c != '.' && c != '%' && c != 'e' && c != 'E' && c != '-' &&
                   c != '+' && c != 'x') {
            return false;
        }
    }
    return digit;
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
    if (headers_.empty()) {
        throw InvalidArgumentError("Table: no headers");
    }
}

void Table::add_row(std::vector<std::string> cells) {
    if (cells.size() != headers_.size()) {
        throw InvalidArgumentError("Table::add_row: wrong cell count");
    }
    rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
    const std::size_t ncols = headers_.size();
    std::vector<std::size_t> width(ncols, 0);
    std::vector<bool> numeric(ncols, true);
    for (std::size_t c = 0; c < ncols; ++c) {
        width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < ncols; ++c) {
            width[c] = std::max(width[c], row[c].size());
            if (!row[c].empty() && !looks_numeric(row[c])) {
                numeric[c] = false;
            }
        }
    }

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row, bool header) {
        os << "|";
        for (std::size_t c = 0; c < ncols; ++c) {
            const std::string& cell = row[c];
            const std::size_t pad = width[c] - cell.size();
            os << ' ';
            if (!header && numeric[c]) {
                os << std::string(pad, ' ') << cell;
            } else {
                os << cell << std::string(pad, ' ');
            }
            os << " |";
        }
        os << '\n';
    };
    emit_row(headers_, true);
    os << "|";
    for (std::size_t c = 0; c < ncols; ++c) {
        os << std::string(width[c] + 2, '-') << "|";
    }
    os << '\n';
    for (const auto& row : rows_) {
        emit_row(row, false);
    }
    return os.str();
}

}  // namespace extradeep
