// extradeep-serve: model persistence and query serving.
//
// Four modes over the src/serve subsystem:
//
//   fit     — run one experiment and export the fitted models as a .edpm file
//   serve   — load a directory of .edpm files and answer line-protocol
//             queries over TCP (prints `LISTENING <port>` when ready)
//   query   — client mode: send request lines to a running daemon
//   ask     — offline mode: answer request lines directly from a directory,
//             no daemon (byte-identical responses by construction)
//
// REQUEST lines follow the grammar in serve/query.hpp: predict, speedup,
// efficiency, cost, search, whatif (scenario evaluation), advise (ranked
// what-if portfolio), plan (adaptive-profiling acquisition), list, stats,
// metrics, ping, reload.
//
// Usage:
//   extradeep-serve fit --out model.edpm [--name NAME] [--dataset D]
//                       [--system DEEP|JURECA] [--strategy data|tensor|pipeline]
//                       [--scaling weak|strong] [--batch B] [--mdegree M]
//                       [--ranks 2,4,6,8,10] [--reps N] [--seed N]
//   extradeep-serve serve --models DIR [--port N] [--threads N]
//   extradeep-serve query --port N [--host H] REQUEST...
//   extradeep-serve ask --models DIR REQUEST...

#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "serve/query.hpp"
#include "serve/query_client.hpp"
#include "serve/registry.hpp"
#include "serve/serialize.hpp"
#include "serve/server.hpp"

using namespace extradeep;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s fit --out FILE [--name NAME] [--trace SPEC] "
                 "[fit options]\n"
                 "       %s serve --models DIR [--port N] [--threads N]\n"
                 "                [--trace SPEC] [--fake-clock STEP_US]\n"
                 "       %s query --port N [--host H] REQUEST...\n"
                 "       %s ask --models DIR [--trace SPEC] "
                 "[--fake-clock STEP_US] REQUEST...\n"
                 "REQUEST verbs: predict speedup efficiency cost search "
                 "whatif advise plan\n"
                 "               list stats metrics ping reload shutdown\n"
                 "               ingest fleet-stats (extradeep-fleet serve "
                 "only)\n",
                 argv0, argv0, argv0, argv0);
}

int run_fit(cli::Args& args) {
    ExperimentSpec spec;
    std::string out_path;
    std::string name = "model";
    std::optional<std::string> trace;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--trace") {
            trace = args.value(arg);
        } else if (arg == "--name") {
            name = args.value(arg);
        } else if (arg == "--dataset") {
            spec.dataset = args.value(arg);
        } else if (arg == "--system") {
            spec.system = cli::parse_system(args.value(arg));
        } else if (arg == "--strategy") {
            spec.strategy = parallel::parse_strategy(args.value(arg));
        } else if (arg == "--scaling") {
            spec.scaling = parallel::parse_scaling(args.value(arg));
        } else if (arg == "--batch") {
            spec.batch_per_worker = args.int_value(arg);
        } else if (arg == "--mdegree") {
            spec.model_parallel_degree = args.int_value(arg);
        } else if (arg == "--ranks") {
            spec.modeling_ranks = cli::parse_rank_list(args.value(arg));
        } else if (arg == "--reps") {
            spec.repetitions = args.int_value(arg);
        } else if (arg == "--seed") {
            spec.seed = args.u64_value(arg);
        } else {
            throw InvalidArgumentError("fit: unknown option '" + arg + "'");
        }
    }
    if (out_path.empty()) {
        throw InvalidArgumentError("fit: --out FILE is required");
    }
    const auto session = cli::open_obs_session(trace, std::nullopt);
    const ExperimentRunner runner(spec);
    const ExperimentResult result = runner.run();
    const serve::ServableModel model =
        serve::make_servable(spec, result, name);
    // A daemon reloading this directory must never load a half-written file.
    write_file_atomically(out_path, [&](const std::string& tmp) {
        serve::write_edpm_file(tmp, model);
    });
    std::printf("wrote %s (%s)\n", out_path.c_str(),
                model.provenance.c_str());
    return 0;
}

void print_load_report(const serve::RegistryLoadReport& report) {
    std::printf("loaded %d model(s), %d quarantined, %d removed\n",
                report.loaded, report.quarantined, report.removed);
    for (const auto& d : report.diagnostics.entries()) {
        std::fprintf(stderr, "%s: %s\n", severity_name(d.severity).data(),
                     d.reason.c_str());
    }
}

serve::ServeDaemon* g_daemon = nullptr;

void handle_signal(int) {
    if (g_daemon != nullptr) {
        g_daemon->stop();  // shutdown(2) is async-signal-safe
    }
}

int run_serve(cli::Args& args) {
    std::string models_dir;
    serve::ServerOptions options;
    std::optional<std::string> trace;
    std::optional<std::uint64_t> fake_clock_step_us;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--models") {
            models_dir = args.value(arg);
        } else if (arg == "--port") {
            options.port = args.int_value(arg);
        } else if (arg == "--threads") {
            options.threads = args.int_value(arg);
        } else if (arg == "--host") {
            options.host = args.value(arg);
        } else if (arg == "--trace") {
            trace = args.value(arg);
        } else if (arg == "--fake-clock") {
            fake_clock_step_us = args.u64_value(arg);
        } else {
            throw InvalidArgumentError("serve: unknown option '" + arg + "'");
        }
    }
    if (models_dir.empty()) {
        throw InvalidArgumentError("serve: --models DIR is required");
    }
    const auto session = cli::open_obs_session(trace, options.threads);
    // --fake-clock STEP_US swaps the latency clock for a deterministic one
    // advancing STEP_US microseconds per reading, so `stats`/`metrics`
    // responses are byte-stable across runs and across daemon/ask modes.
    std::unique_ptr<obs::FakeClock> fake_clock;
    if (fake_clock_step_us) {
        fake_clock =
            std::make_unique<obs::FakeClock>(0, *fake_clock_step_us * 1000);
    }
    auto registry = std::make_shared<serve::ModelRegistry>();
    print_load_report(registry->load_directory(models_dir));
    auto engine = std::make_shared<serve::QueryEngine>(std::move(registry),
                                                       fake_clock.get());
    serve::ServeDaemon daemon(std::move(engine), options);
    daemon.start();
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("LISTENING %d\n", daemon.port());
    std::fflush(stdout);
    daemon.wait();
    g_daemon = nullptr;
    std::printf("stopped\n");
    return 0;
}

int run_ask(cli::Args& args) {
    std::string models_dir;
    std::vector<std::string> requests;
    std::optional<std::string> trace;
    std::optional<std::uint64_t> fake_clock_step_us;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--models") {
            models_dir = args.value(arg);
        } else if (arg == "--trace") {
            trace = args.value(arg);
        } else if (arg == "--fake-clock") {
            fake_clock_step_us = args.u64_value(arg);
        } else {
            requests.push_back(arg);
        }
    }
    if (models_dir.empty()) {
        throw InvalidArgumentError("ask: --models DIR is required");
    }
    if (requests.empty()) {
        throw InvalidArgumentError("ask: no requests given");
    }
    const auto session = cli::open_obs_session(trace, 1);
    std::unique_ptr<obs::FakeClock> fake_clock;
    if (fake_clock_step_us) {
        fake_clock =
            std::make_unique<obs::FakeClock>(0, *fake_clock_step_us * 1000);
    }
    auto registry = std::make_shared<serve::ModelRegistry>();
    const auto report = registry->load_directory(models_dir);
    for (const auto& d : report.diagnostics.entries()) {
        std::fprintf(stderr, "%s: %s\n", severity_name(d.severity).data(),
                     d.reason.c_str());
    }
    serve::QueryEngine engine(std::move(registry), fake_clock.get());
    for (const auto& r : requests) {
        std::printf("%s\n", engine.execute(r).c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string mode = argv[1];
    try {
        cli::Args args(argc, argv, 2);
        if (mode == "fit") {
            return run_fit(args);
        }
        if (mode == "serve") {
            return run_serve(args);
        }
        if (mode == "query") {
            return serve::run_query_client(args);
        }
        if (mode == "ask") {
            return run_ask(args);
        }
        if (mode == "-h" || mode == "--help") {
            usage(argv[0]);
            return 0;
        }
        std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
        usage(argv[0]);
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
