#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/format.hpp"

namespace extradeep::cli {

namespace {

template <typename Int>
bool parse_whole_int(const std::string& text, Int& out) {
    const char* first = text.data();
    const char* last = first + text.size();
    const auto [end, ec] = std::from_chars(first, last, out);
    return !text.empty() && ec == std::errc() && end == last;
}

bool parse_finite(const std::string& text, double& out) {
    return fmt::parse_double(text, out) && std::isfinite(out);
}

[[noreturn]] void bad_value(const std::string& flag, const char* expected,
                            const std::string& text) {
    throw InvalidArgumentError(flag + ": expected " + expected + ", got '" +
                               text + "'");
}

/// Splits a comma list, rejecting empty entries ("2,,4", "", "2,").
std::vector<std::string> split_list(const std::string& flag,
                                    const std::string& arg) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = arg.find(',', pos);
        out.push_back(arg.substr(pos, comma == std::string::npos
                                          ? std::string::npos
                                          : comma - pos));
        if (out.back().empty()) {
            throw InvalidArgumentError(flag + ": empty entry in '" + arg +
                                       "'");
        }
        if (comma == std::string::npos) {
            return out;
        }
        pos = comma + 1;
    }
}

}  // namespace

Args::Args(int argc, char** argv, int first)
    : argc_(argc), argv_(argv), i_(first) {}

bool Args::next(std::string& arg) {
    if (i_ >= argc_) {
        return false;
    }
    arg = argv_[i_++];
    return true;
}

std::string Args::value(const std::string& flag) {
    if (i_ >= argc_) {
        throw InvalidArgumentError(flag + " requires a value");
    }
    return argv_[i_++];
}

int Args::int_value(const std::string& flag) {
    const std::string text = value(flag);
    int v = 0;
    if (!parse_whole_int(text, v)) {
        bad_value(flag, "an integer", text);
    }
    return v;
}

std::uint64_t Args::u64_value(const std::string& flag) {
    const std::string text = value(flag);
    std::uint64_t v = 0;
    if (!parse_whole_int(text, v)) {
        bad_value(flag, "a non-negative integer", text);
    }
    return v;
}

double Args::double_value(const std::string& flag) {
    const std::string text = value(flag);
    double v = 0.0;
    if (!parse_finite(text, v)) {
        bad_value(flag, "a number", text);
    }
    return v;
}

std::vector<int> parse_rank_list(const std::string& arg) {
    std::vector<int> out;
    for (const std::string& token : split_list("--ranks", arg)) {
        int v = 0;
        if (!parse_whole_int(token, v) || v < 1) {
            throw InvalidArgumentError("--ranks: bad rank count '" + token +
                                       "'");
        }
        out.push_back(v);
    }
    return out;
}

std::vector<double> parse_noise_list(const std::string& arg) {
    std::vector<double> out;
    for (const std::string& token : split_list("--noise", arg)) {
        double v = 0.0;
        if (!parse_finite(token, v) || v < 0.0) {
            throw InvalidArgumentError("--noise: bad sigma '" + token + "'");
        }
        out.push_back(v);
    }
    return out;
}

hw::SystemSpec parse_system(const std::string& name) {
    if (name == "DEEP" || name == "deep") {
        return hw::SystemSpec::deep();
    }
    if (name == "JURECA" || name == "jureca") {
        return hw::SystemSpec::jureca();
    }
    throw InvalidArgumentError("--system: unknown system '" + name +
                               "' (expected DEEP or JURECA)");
}

std::string read_text_file(const std::string& path, const std::string& what) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error(what + ": cannot read '" + path + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string git_revision() {
    std::string rev;
    if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), p) != nullptr) {
            rev = buf;
        }
        pclose(p);
    }
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
    }
    return rev.empty() ? "unknown" : rev;
}

std::unique_ptr<obs::ObsSession> open_obs_session(
    const std::optional<std::string>& trace, std::optional<int> x1) {
    obs::ObsConfig config =
        trace ? obs::parse_obs_config(*trace) : obs::obs_config_from_env();
    const bool default_x1 = config.params.find("x1") == config.params.end();
    auto session = std::make_unique<obs::ObsSession>(std::move(config));
    if (session->config().enabled && default_x1 && x1) {
        session->set_param("x1", static_cast<double>(*x1));
    }
    return session;
}

}  // namespace extradeep::cli
