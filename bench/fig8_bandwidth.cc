/**
 * @file
 * Reproduces Figure 8 of the paper: "Bandwidth of deliberate update
 * UDMA transfers as a percentage of the maximum measured bandwidth on
 * the SHRIMP network interface", versus message size.
 *
 * Paper claims to check (shape, not absolute numbers):
 *  - rapid rise ("highlights the low cost of initiating UDMA
 *    transfers");
 *  - exceeds 50% of max at a message size of only 512 bytes;
 *  - the largest single transfer (a 4 KB page) achieves ~94% of max;
 *  - a slight dip just past 4 KB (cost of initiating and starting a
 *    second UDMA transfer);
 *  - the maximum is sustained for messages exceeding 8 KB.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace shrimp;

int
main(int argc, char **argv)
{
    auto opts = core::parseRunOptions(argc, argv);
    if (!opts.ok)
        return 2;
    bench::BenchReport report("fig8_bandwidth", opts);

    sim::MachineParams params;

    std::vector<std::uint64_t> sizes = {
        64,   128,  256,  512,  768,  1024, 1536, 2048,  3072,
        4096, 4160, 4608, 5120, 6144, 7168, 8192, 12288, 16384,
        24576, 32768, 65536,
    };

    // "Maximum measured bandwidth": measured at the largest size, as
    // on the real system where the plateau is reached past 8 KB.
    auto max_t = bench::timeUdmaMessage(sizes.back(), params);
    double max_bw = max_t.bandwidthBytesPerUs();

    std::printf("# Figure 8: deliberate-update UDMA bandwidth vs "
                "message size\n");
    std::printf("# max measured bandwidth = %.2f MB/s (at %llu bytes)\n",
                max_bw * 1e6 / (1 << 20),
                (unsigned long long)sizes.back());
    std::printf("%10s %12s %12s %10s %10s\n", "bytes", "time_us",
                "MB/s", "pct_max", "transfers");

    for (auto n : sizes) {
        auto t = bench::timeUdmaMessage(n, params);
        double bw = t.bandwidthBytesPerUs();
        const double us = ticksToUs(t.delivered - t.sendStart);
        const double pct = 100.0 * bw / max_bw;
        std::printf("%10llu %12.2f %12.2f %9.1f%% %10llu\n",
                    (unsigned long long)n, us, bw * 1e6 / (1 << 20), pct,
                    (unsigned long long)t.transfers);
        // Every row machine-readable, so a test can pin the figure.
        report.addMetric("time_us_" + std::to_string(n), us);
        report.addMetric("pct_max_" + std::to_string(n), pct);
    }

    std::printf("\n# Paper anchors: >50%% at 512 B; ~94%% at 4 KB; "
                "dip just past 4 KB; plateau past 8 KB.\n");

    report.setParam("max_bytes", double(sizes.back()));
    report.setParam("sizes", double(sizes.size()));
    report.addMetric("max_bandwidth_mb_s", max_bw * 1e6 / (1 << 20));
    report.write();
    return 0;
}
