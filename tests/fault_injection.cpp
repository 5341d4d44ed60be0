#include "fault_injection.hpp"

#include <algorithm>
#include <sstream>

namespace extradeep::edpfuzz {

namespace {

using trace::KernelCategory;
using trace::NvtxMark;
using trace::StepKind;

std::vector<std::string> split_lines(const std::string& input) {
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (true) {
        const std::size_t nl = input.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(input.substr(pos));
            break;
        }
        lines.push_back(input.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i > 0) out += '\n';
        out += lines[i];
    }
    return out;
}

std::vector<std::string> split_fields(const std::string& line) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        const std::size_t tab = line.find('\t', pos);
        if (tab == std::string::npos) {
            out.push_back(line.substr(pos));
            break;
        }
        out.push_back(line.substr(pos, tab - pos));
        pos = tab + 1;
    }
    return out;
}

std::string join_fields(const std::vector<std::string>& fields) {
    std::string out;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out += '\t';
        out += fields[i];
    }
    return out;
}

std::size_t pick_index(Rng& rng, std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// A double on the 1/16 grid in [0, max_sixteenths/16]; exact both in
/// binary and in the <= 12-significant-digit EDP text encoding.
double grid(Rng& rng, std::int64_t max_sixteenths) {
    return static_cast<double>(rng.uniform_int(0, max_sixteenths)) / 16.0;
}

}  // namespace

std::string truncate_bytes(const std::string& input, Rng& rng) {
    if (input.empty()) return input;
    return input.substr(0, pick_index(rng, input.size()));
}

std::string delete_field(const std::string& input, Rng& rng) {
    std::vector<std::string> lines = split_lines(input);
    std::string& line = lines[pick_index(rng, lines.size())];
    std::vector<std::string> fields = split_fields(line);
    fields.erase(fields.begin() +
                 static_cast<std::ptrdiff_t>(pick_index(rng, fields.size())));
    line = join_fields(fields);
    return join_lines(lines);
}

std::string delete_line(const std::string& input, Rng& rng) {
    std::vector<std::string> lines = split_lines(input);
    lines.erase(lines.begin() +
                static_cast<std::ptrdiff_t>(pick_index(rng, lines.size())));
    return join_lines(lines);
}

std::string duplicate_line(const std::string& input, Rng& rng) {
    std::vector<std::string> lines = split_lines(input);
    const std::size_t i = pick_index(rng, lines.size());
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
    return join_lines(lines);
}

std::string inject_whitespace(const std::string& input, Rng& rng) {
    std::string out = input;
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(out.size())));
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
               rng.bernoulli(0.5) ? '\t' : '\n');
    return out;
}

std::string duplicate_rank_block(const std::string& input, Rng& rng) {
    std::vector<std::string> lines = split_lines(input);
    std::vector<std::size_t> rank_lines;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].rfind("RANK\t", 0) == 0) {
            rank_lines.push_back(i);
        }
    }
    if (rank_lines.empty()) {
        return duplicate_line(input, rng);
    }
    const std::size_t start = rank_lines[pick_index(rng, rank_lines.size())];
    std::size_t end = start + 1;
    while (end < lines.size() && lines[end].rfind("RANK\t", 0) != 0 &&
           lines[end] != "END") {
        ++end;
    }
    std::vector<std::string> block(lines.begin() +
                                       static_cast<std::ptrdiff_t>(start),
                                   lines.begin() +
                                       static_cast<std::ptrdiff_t>(end));
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(end),
                 block.begin(), block.end());
    return join_lines(lines);
}

const std::vector<std::string>& corrupt_number_tokens() {
    static const std::vector<std::string> kJunk = {
        "nan", "-nan", "inf",   "-inf",  "1e999", "-1",
        "12x", "",     "0.0.0", "+-3",   "0x",    "999999999999999999999999",
    };
    return kJunk;
}

std::string corrupt_number(const std::string& input, Rng& rng) {
    const std::vector<std::string>& junk = corrupt_number_tokens();
    std::vector<std::string> lines = split_lines(input);
    std::string& line = lines[pick_index(rng, lines.size())];
    std::vector<std::string> fields = split_fields(line);
    fields[pick_index(rng, fields.size())] =
        junk[pick_index(rng, junk.size())];
    line = join_fields(fields);
    return join_lines(lines);
}

std::string shuffle_lines(const std::string& input, Rng& rng) {
    std::vector<std::string> lines = split_lines(input);
    // Fisher-Yates with our own Rng: the permutation is a pure function of
    // the seed, independent of the standard library's std::shuffle details.
    for (std::size_t i = lines.size(); i > 1; --i) {
        const std::size_t j = pick_index(rng, i);
        std::swap(lines[i - 1], lines[j]);
    }
    return join_lines(lines);
}

const std::vector<std::pair<std::string, MutatorFn>>& mutators() {
    static const std::vector<std::pair<std::string, MutatorFn>> kMutators = {
        {"truncate_bytes", truncate_bytes},
        {"delete_field", delete_field},
        {"delete_line", delete_line},
        {"duplicate_line", duplicate_line},
        {"inject_whitespace", inject_whitespace},
        {"duplicate_rank_block", duplicate_rank_block},
        {"corrupt_number", corrupt_number},
        {"shuffle_lines", shuffle_lines},
    };
    return kMutators;
}

std::string apply_random_mutations(const std::string& input, Rng& rng,
                                   int count) {
    std::string out = input;
    for (int i = 0; i < count; ++i) {
        out = mutators()[pick_index(rng, mutators().size())].second(out, rng);
    }
    return out;
}

profiling::ProfiledRun random_run(Rng& rng) {
    profiling::ProfiledRun run;
    const int n_params = static_cast<int>(rng.uniform_int(0, 3));
    for (int p = 0; p < n_params; ++p) {
        std::string key("x");
        key += std::to_string(p + 1);
        run.params[std::move(key)] = grid(rng, 4096);
    }
    run.repetition = static_cast<int>(rng.uniform_int(0, 20));
    run.profiling_wall_time = grid(rng, 1 << 16);

    static const char kNameChars[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    const int n_ranks = static_cast<int>(rng.uniform_int(0, 4));
    for (int r = 0; r < n_ranks; ++r) {
        trace::RankTrace t;
        t.rank = r;
        const int n_marks = static_cast<int>(rng.uniform_int(0, 5));
        for (int m = 0; m < n_marks; ++m) {
            NvtxMark mark;
            mark.kind = static_cast<NvtxMark::Kind>(rng.uniform_int(0, 3));
            mark.epoch = static_cast<int>(rng.uniform_int(0, 3));
            mark.step = static_cast<int>(rng.uniform_int(-1, 6));
            mark.step_kind =
                rng.bernoulli(0.5) ? StepKind::Train : StepKind::Validation;
            mark.time = grid(rng, 1 << 12);
            t.marks.push_back(mark);
        }
        const int n_events = static_cast<int>(rng.uniform_int(0, 8));
        for (int e = 0; e < n_events; ++e) {
            trace::TraceEvent ev;
            const int name_len = static_cast<int>(rng.uniform_int(1, 12));
            for (int c = 0; c < name_len; ++c) {
                ev.name += kNameChars[pick_index(
                    rng, sizeof(kNameChars) - 1)];
            }
            ev.category = static_cast<KernelCategory>(rng.uniform_int(0, 9));
            ev.start = grid(rng, 1 << 12);
            ev.duration = grid(rng, 1 << 10);
            ev.visits = rng.uniform_int(0, 1000);
            ev.bytes = grid(rng, 1 << 20);
            t.events.push_back(std::move(ev));
        }
        run.ranks.push_back(std::move(t));
    }
    return run;
}

profiling::ProfiledRun coherent_run(Rng& rng,
                                    std::map<std::string, double> params,
                                    int repetition, int n_ranks) {
    struct Kernel {
        const char* name;
        KernelCategory category;
        bool carries_bytes;
    };
    static const Kernel kPool[] = {
        {"gemm", KernelCategory::CudaKernel, false},
        {"allreduce", KernelCategory::Nccl, true},
        {"h2d", KernelCategory::Memcpy, true},
        {"relu", KernelCategory::CudaKernel, false},
        {"mpi_wait", KernelCategory::Mpi, false},
        {"memset0", KernelCategory::Memset, true},
    };

    profiling::ProfiledRun run;
    run.params = std::move(params);
    run.repetition = repetition;

    double wall = 0.0;
    for (int r = 0; r < n_ranks; ++r) {
        trace::RankTrace t;
        t.rank = r;
        double cursor = 0.0;
        auto mark = [&](NvtxMark::Kind kind, int epoch, int step,
                        StepKind step_kind, double time) {
            NvtxMark m;
            m.kind = kind;
            m.epoch = epoch;
            m.step = step;
            m.step_kind = step_kind;
            m.time = time;
            t.marks.push_back(m);
        };
        auto event = [&](const Kernel& k, double start) {
            trace::TraceEvent e;
            e.name = k.name;
            e.category = k.category;
            e.start = start;
            e.duration = grid(rng, 64);
            e.visits = rng.uniform_int(1, 5);
            e.bytes = k.carries_bytes ? grid(rng, 1 << 16) : 0.0;
            t.events.push_back(std::move(e));
        };

        for (int epoch = 0; epoch < 2; ++epoch) {
            mark(NvtxMark::Kind::EpochStart, epoch, -1, StepKind::Train,
                 cursor);
            const int n_train = 2 + static_cast<int>(rng.uniform_int(0, 2));
            const int n_val = static_cast<int>(rng.uniform_int(0, 2));
            for (int s = 0; s < n_train + n_val; ++s) {
                const StepKind kind =
                    s < n_train ? StepKind::Train : StepKind::Validation;
                const double start = cursor;
                mark(NvtxMark::Kind::StepStart, epoch, s, kind, start);
                event(kPool[0], start + 0.0625);  // gemm in every step
                for (std::size_t k = 1; k < std::size(kPool); ++k) {
                    if (rng.bernoulli(0.7)) {
                        event(kPool[k],
                              start + 0.0625 * static_cast<double>(k + 1));
                    }
                }
                cursor = start + 2.0;
                mark(NvtxMark::Kind::StepEnd, epoch, s, kind, cursor);
                // Async gap before the next step/epoch boundary.
                if (rng.bernoulli(0.3)) {
                    event(kPool[2], cursor + 0.0625);  // async h2d
                }
                cursor += 0.5;
            }
            mark(NvtxMark::Kind::EpochEnd, epoch, -1, StepKind::Train,
                 cursor);
            cursor += 0.5;
        }
        wall = std::max(wall, cursor);
        run.ranks.push_back(std::move(t));
    }
    run.profiling_wall_time = wall;
    return run;
}

}  // namespace extradeep::edpfuzz
