#include "serve/query_client.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/server.hpp"

namespace extradeep::serve {

int run_query_client(cli::Args& args) {
    std::string host = "127.0.0.1";
    int port = 0;
    std::vector<std::string> requests;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--host") {
            host = args.value(arg);
        } else if (arg == "--port") {
            port = args.int_value(arg);
        } else {
            requests.push_back(arg);
        }
    }
    if (port <= 0) {
        throw InvalidArgumentError("query: --port N is required");
    }
    if (requests.empty()) {
        throw InvalidArgumentError("query: no requests given");
    }
    for (const std::string& response : query_daemon(host, port, requests)) {
        std::printf("%s\n", response.c_str());
    }
    return 0;
}

}  // namespace extradeep::serve
