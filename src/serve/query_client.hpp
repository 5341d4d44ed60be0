#pragma once

#include "common/cli.hpp"

namespace extradeep::serve {

/// The `query` client mode of extradeep-serve and extradeep-fleet:
///   query --port N [--host H] REQUEST...
/// Sends the request lines to a running daemon over one connection and
/// prints one response per line. Returns the process exit code; throws
/// InvalidArgumentError on a missing port or request and Error on a
/// connection failure.
int run_query_client(cli::Args& args);

}  // namespace extradeep::serve
