/**
 * @file
 * Tiny CLI used by the CTest smoke targets: parse a JSON file (the
 * BENCH_*.json / --stats-json output) and verify that each required
 * dotted key is present.
 *
 *   json_validate <file> [dotted.key | dotted.key=number ...]
 *
 * A `key=number` argument also pins the value: the key must hold a
 * number that prints as exactly that text at the text's own number of
 * decimals (`metrics.udma_initiate_us=2.80` passes for 2.79996), the
 * precision the bench tables print.
 *
 * Exit status: 0 = parsed and every key found (and every pin held);
 * 1 = unreadable, malformed, a key missing or a pin broken; 2 = usage
 * error.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "../support/mini_json.hh"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: json_validate <file> [dotted.key ...]\n");
        return 2;
    }

    std::ifstream in(argv[1]);
    if (!in) {
        std::fprintf(stderr, "json_validate: cannot read %s\n",
                     argv[1]);
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    minijson::Value doc;
    std::string err;
    if (!minijson::parse(ss.str(), doc, &err)) {
        std::fprintf(stderr, "json_validate: %s: %s\n", argv[1],
                     err.c_str());
        return 1;
    }

    int missing = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const minijson::Value *v = doc.path(key);
        if (!v) {
            std::fprintf(stderr, "json_validate: %s: missing key %s\n",
                         argv[1], key.c_str());
            ++missing;
            continue;
        }
        if (eq == std::string::npos)
            continue;
        const std::string want = arg.substr(eq + 1);
        const std::size_t dot = want.find('.');
        const int decimals =
            dot == std::string::npos ? 0 : int(want.size() - dot - 1);
        char have[64] = "(not a number)";
        if (v->isNumber())
            std::snprintf(have, sizeof have, "%.*f", decimals, v->number);
        if (want != have) {
            std::fprintf(stderr,
                         "json_validate: %s: %s is %s, pinned %s\n",
                         argv[1], key.c_str(), have, want.c_str());
            ++missing;
        }
    }
    if (missing)
        return 1;

    std::printf("json_validate: %s ok (%d keys checked)\n", argv[1],
                argc - 2);
    return 0;
}
