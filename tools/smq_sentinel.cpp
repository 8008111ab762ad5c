/**
 * @file
 * Thin entry point for the perf sentinel; all logic (and its tests)
 * live in src/report/sentinel_cli.cpp. The `submit` subcommand is the
 * serve-daemon client (src/serve/serve_cli.cpp) and is dispatched
 * here so the report library need not link the serve layer.
 */

#include <iostream>
#include <string>
#include <vector>

#include "report/sentinel_cli.hpp"
#include "serve/serve_cli.hpp"

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args.front() == "submit") {
        return smq::serve::submitMain(
            std::vector<std::string>(args.begin() + 1, args.end()),
            std::cout, std::cerr);
    }
    return smq::report::sentinelMain(args, std::cout, std::cerr);
}
