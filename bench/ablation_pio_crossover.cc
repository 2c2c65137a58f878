/**
 * @file
 * DMA vs PIO crossover (paper Section 9): "This [memory-mapped FIFO]
 * approach results in good latency for short messages. However, for
 * longer messages the DMA-based controller is preferable because it
 * makes use of the bus burst mode, which is much faster than
 * processor-generated single word transactions."
 *
 * Sweep the message size over both transports on the same machine and
 * report end-to-end latency and bandwidth; locate the crossover.
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
    bench::BenchReport report("ablation_pio_crossover", opts);

    sim::MachineParams params;

    std::printf("# PIO (memory-mapped FIFO) vs UDMA (burst DMA), "
                "end-to-end one message\n");
    std::printf("%10s %14s %14s %12s %12s\n", "bytes", "pio_us",
                "udma_us", "pio_MB_s", "udma_MB_s");

    std::vector<std::uint64_t> sizes = {8,    16,   32,   64,   128,
                                        256,  512,  1024, 2048, 4096,
                                        8192, 16384};
    std::uint64_t crossover = 0;
    for (auto n : sizes) {
        auto pio = bench::timePioMessage(n, params);
        auto udma = bench::timeUdmaMessage(n, params);
        double pio_us = ticksToUs(pio.delivered - pio.sendStart);
        double udma_us = ticksToUs(udma.delivered - udma.sendStart);
        if (crossover == 0 && udma_us < pio_us)
            crossover = n;
        report.addMetric("pio_us_" + std::to_string(n), pio_us);
        report.addMetric("udma_us_" + std::to_string(n), udma_us);
        std::printf("%10llu %14.2f %14.2f %12.2f %12.2f\n",
                    (unsigned long long)n, pio_us, udma_us,
                    pio.bandwidthBytesPerUs() * 1e6 / (1 << 20),
                    udma.bandwidthBytesPerUs() * 1e6 / (1 << 20));
    }
    if (crossover) {
        std::printf("\n# burst-mode DMA overtakes PIO at ~%llu bytes; "
                    "PIO wins below (lower fixed cost), DMA above "
                    "(burst bandwidth).\n",
                    (unsigned long long)crossover);
    } else {
        std::printf("\n# no crossover observed in this sweep\n");
    }
    report.addMetric("crossover_bytes", double(crossover));
    report.write();
    return 0;
}
