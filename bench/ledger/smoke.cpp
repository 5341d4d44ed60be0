// ledger-smoke: runs every workload of BENCHMARK.json in --smoke mode, once
// untraced and once traced, and checks that each run passes its output
// checks and reports every end-to-end (untraced) or per-layer (traced)
// metric the benchmark declares, with a finite value.
//
// Usage: ledger-smoke <extradeep-ledger> <BENCHMARK.json> <work-dir>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace {

namespace json = extradeep::json;

std::vector<std::string> names_of(const json::Value& doc, const char* key) {
    std::vector<std::string> out;
    const json::Value* list = doc.find(key);
    if (list == nullptr || list->kind != json::Value::Kind::Array) {
        throw std::runtime_error(std::string("BENCHMARK.json lacks ") + key);
    }
    for (const json::Value& entry : list->array) {
        const json::Value* name = entry.find("name");
        if (name == nullptr || name->kind != json::Value::Kind::String) {
            throw std::runtime_error(std::string("unnamed entry in ") + key);
        }
        out.push_back(name->string);
    }
    return out;
}

/// Runs `command`, returning its exit status and standard output.
int run(const std::string& command, std::string& output) {
    FILE* p = popen(command.c_str(), "r");
    if (p == nullptr) {
        return -1;
    }
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) {
        output.append(buf, n);
    }
    const int status = pclose(p);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string last_line(const std::string& text) {
    std::size_t end = text.find_last_not_of('\n');
    if (end == std::string::npos) {
        return "";
    }
    const std::size_t begin = text.rfind('\n', end);
    return text.substr(begin == std::string::npos ? 0 : begin + 1,
                       end - (begin == std::string::npos ? 0 : begin + 1) + 1);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 4) {
        std::fprintf(stderr,
                     "usage: ledger-smoke <extradeep-ledger> <BENCHMARK.json> "
                     "<work-dir>\n");
        return 2;
    }
    int failures = 0;
    try {
        std::ifstream is(argv[2]);
        std::stringstream text;
        text << is.rdbuf();
        const json::Value doc = json::parse(text.str(), "BENCHMARK.json");
        const std::vector<std::string> workloads = names_of(doc, "workloads");
        const std::vector<std::string> metric_sets[2] = {
            names_of(doc, "end_to_end"), names_of(doc, "per_layer")};
        for (const std::string& workload : workloads) {
            for (int trace = 0; trace < 2; ++trace) {
                const std::string label =
                    workload + (trace ? " (traced)" : "");
                std::string output;
                const int status = run(
                    std::string("'") + argv[1] + "' --workload " + workload +
                        " --seed 1 --smoke --trace " + std::to_string(trace) +
                        " --work-dir '" + argv[3] + "'",
                    output);
                if (status != 0) {
                    std::fprintf(stderr, "%s: exit status %d\n%s",
                                 label.c_str(), status, output.c_str());
                    ++failures;
                    continue;
                }
                const json::Value result =
                    json::parse(last_line(output), label);
                const json::Value* correct = result.find("correct");
                const json::Value* metrics = result.find("metrics");
                if (correct == nullptr || !correct->boolean ||
                    metrics == nullptr) {
                    std::fprintf(stderr, "%s: not correct\n", label.c_str());
                    ++failures;
                    continue;
                }
                for (const std::string& name : metric_sets[trace]) {
                    const json::Value* m = metrics->find(name);
                    const json::Value* v = m ? m->find("value") : nullptr;
                    if (v == nullptr || v->kind != json::Value::Kind::Number ||
                        !std::isfinite(v->number)) {
                        std::fprintf(stderr, "%s: metric %s missing\n",
                                     label.c_str(), name.c_str());
                        ++failures;
                    }
                }
                std::printf("%s: ok (%zu metrics)\n", label.c_str(),
                            metric_sets[trace].size());
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ledger-smoke: %s\n", e.what());
        return 1;
    }
    return failures == 0 ? 0 : 1;
}
