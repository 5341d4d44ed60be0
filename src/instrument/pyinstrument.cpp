#include "instrument/pyinstrument.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace extradeep::instrument {

namespace {

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            if (pos < text.size()) {
                lines.push_back(text.substr(pos));
            }
            break;
        }
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
    std::string out;
    for (const auto& l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

std::size_t indent_of(const std::string& line) {
    std::size_t i = 0;
    while (i < line.size() && line[i] == ' ') {
        ++i;
    }
    return i;
}

bool is_blank(const std::string& line) {
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

bool starts_with_at(const std::string& line, std::size_t pos,
                    std::string_view what) {
    return line.compare(pos, what.size(), what) == 0;
}

/// Extracts the function name of a `def name(...)` line; empty if not a def.
std::string def_name(const std::string& line) {
    const std::size_t ind = indent_of(line);
    std::size_t pos = ind;
    if (starts_with_at(line, pos, "async ")) {
        pos += 6;
    }
    if (!starts_with_at(line, pos, "def ")) {
        return {};
    }
    pos += 4;
    std::string name;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_')) {
        name += line[pos++];
    }
    if (name.empty() || pos >= line.size() || line[pos] != '(') {
        return {};
    }
    return name;
}

/// Classifies a `for` loop header as an epoch or step loop. The heuristic
/// mirrors the paper's target patterns: `for epoch in range(...)` and
/// `for batch, (images, labels) in enumerate(train_ds.take(s))`.
std::string loop_label(const std::string& line) {
    const std::size_t ind = indent_of(line);
    if (!starts_with_at(line, ind, "for ")) {
        return {};
    }
    if (line.find(':') == std::string::npos) {
        return {};
    }
    std::string lower = line;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.find("epoch") != std::string::npos) {
        return "epoch";
    }
    if (lower.find("step") != std::string::npos ||
        lower.find("batch") != std::string::npos ||
        lower.find("enumerate(") != std::string::npos ||
        lower.find("train_ds") != std::string::npos ||
        lower.find("dataloader") != std::string::npos ||
        lower.find(".take(") != std::string::npos) {
        return "step";
    }
    return {};
}

bool contains_nvtx(const std::string& line) {
    return line.find("nvtx.annotate") != std::string::npos;
}

}  // namespace

InstrumentResult instrument_python(const std::string& source) {
    InstrumentResult result;
    std::vector<std::string> lines = split_lines(source);

    // Pass 1: function decorators.
    std::vector<std::string> out;
    out.reserve(lines.size() + 16);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string name = def_name(lines[i]);
        if (!name.empty()) {
            // Look back over decorators/blank lines for an existing
            // nvtx annotation.
            bool annotated = false;
            for (std::size_t j = out.size(); j-- > 0;) {
                if (is_blank(out[j])) {
                    continue;
                }
                const std::size_t ind = indent_of(out[j]);
                if (ind < out[j].size() && out[j][ind] == '@') {
                    if (contains_nvtx(out[j])) {
                        annotated = true;
                        break;
                    }
                    continue;  // other decorator, keep scanning upward
                }
                break;
            }
            if (!annotated) {
                out.push_back(std::string(indent_of(lines[i]), ' ') +
                              "@nvtx.annotate(\"" + name + "\")");
                ++result.functions_annotated;
            }
        }
        out.push_back(lines[i]);
    }
    lines = std::move(out);

    // Pass 2: epoch/step loop ranges. Processed bottom-up so body
    // re-indentation does not disturb line indices of earlier loops.
    for (std::size_t i = lines.size(); i-- > 0;) {
        const std::string label = loop_label(lines[i]);
        if (label.empty()) {
            continue;
        }
        const std::size_t for_indent = indent_of(lines[i]);
        // Body: maximal following run of blank lines or lines indented
        // deeper than the for header.
        std::size_t body_begin = i + 1;
        std::size_t body_end = body_begin;
        std::size_t body_indent = std::string::npos;
        while (body_end < lines.size()) {
            if (is_blank(lines[body_end])) {
                ++body_end;
                continue;
            }
            const std::size_t ind = indent_of(lines[body_end]);
            if (ind <= for_indent) {
                break;
            }
            body_indent = std::min(body_indent, ind);
            ++body_end;
        }
        if (body_begin >= body_end || body_indent == std::string::npos) {
            continue;  // empty body; nothing to wrap
        }
        // Idempotency: body already wrapped in an nvtx range.
        std::size_t first_stmt = body_begin;
        while (first_stmt < body_end && is_blank(lines[first_stmt])) {
            ++first_stmt;
        }
        if (first_stmt < body_end &&
            lines[first_stmt].find("with nvtx.annotate") !=
                std::string::npos) {
            continue;
        }
        // Re-indent the body by four spaces and insert the with-line.
        for (std::size_t j = body_begin; j < body_end; ++j) {
            if (!is_blank(lines[j])) {
                lines[j].insert(0, "    ");
            }
        }
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(body_begin),
                     std::string(body_indent, ' ') +
                         "with nvtx.annotate(\"" + label + "\"):");
        ++result.loops_annotated;
    }

    // Pass 3: ensure the nvtx import exists if anything was annotated.
    const bool needs_import =
        result.functions_annotated > 0 || result.loops_annotated > 0;
    bool has_import = false;
    for (const auto& l : lines) {
        if (l.rfind("import nvtx", 0) == 0 ||
            l.rfind("from nvtx", 0) == 0) {
            has_import = true;
            break;
        }
    }
    if (needs_import && !has_import) {
        // Insert after any leading comments/shebang.
        std::size_t insert_at = 0;
        while (insert_at < lines.size() &&
               (is_blank(lines[insert_at]) ||
                (!lines[insert_at].empty() && lines[insert_at][0] == '#'))) {
            ++insert_at;
        }
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(insert_at),
                     "import nvtx");
        result.import_added = true;
    }

    result.source = join_lines(lines);
    return result;
}

InstrumentResult instrument_python_file(const std::string& input_path,
                                        const std::string& output_path) {
    std::ifstream in(input_path);
    if (!in) {
        throw Error("instrument_python_file: cannot open " + input_path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    InstrumentResult result = instrument_python(buffer.str());
    std::ofstream out(output_path);
    if (!out) {
        throw Error("instrument_python_file: cannot write " + output_path);
    }
    out << result.source;
    if (!out) {
        throw Error("instrument_python_file: write failed for " + output_path);
    }
    return result;
}

}  // namespace extradeep::instrument
