#pragma once

#include <string>
#include <vector>

namespace extradeep {

/// Simple aligned ASCII table used by the benchmark harnesses to print the
/// paper's tables/figure series. Cells are strings; use the helpers in
/// common/format.hpp to render numbers consistently.
class Table {
public:
    /// Creates a table with the given column headers.
    explicit Table(std::vector<std::string> headers);

    /// Appends one row; must have exactly as many cells as there are headers.
    void add_row(std::vector<std::string> cells);

    /// Number of data rows.
    std::size_t row_count() const { return rows_.size(); }

    /// Renders the table with a header rule and per-column alignment
    /// (numbers are right-aligned automatically).
    std::string to_string() const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace extradeep
