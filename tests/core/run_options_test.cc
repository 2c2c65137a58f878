/**
 * @file
 * The run-option surface every main shares: `--shards=` parsing and
 * the one resolver of the fault, topology and audit specs
 * (resolveRunSpecs), whose precedence is pinned here as a table.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

RunOptions
parse(std::vector<std::string> args, int *argc_out = nullptr)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    int argc = int(argv.size());
    RunOptions opts = parseRunOptions(argc, argv.data());
    if (argc_out)
        *argc_out = argc;
    return opts;
}

/** Sets (or, for nullptr, clears) an environment variable until the
 *  end of the scope. */
struct ScopedEnv
{
    const char *name;
    ScopedEnv(const char *n, const char *value) : name(n)
    {
        value ? setenv(n, value, 1) : unsetenv(n);
    }
    ~ScopedEnv() { unsetenv(name); }
};

} // namespace

TEST(RunOptions, ShardsDefaultToOneWorker)
{
    RunOptions opts = parse({});
    EXPECT_TRUE(opts.ok);
    EXPECT_EQ(opts.shards, 1u);
    EXPECT_EQ(SystemConfig{}.shards, 1u);
    EXPECT_EQ(resolveShards(opts, 16), 1u);

    int argc = 0;
    RunOptions four = parse({"--shards=4", "keep"}, &argc);
    EXPECT_TRUE(four.ok);
    EXPECT_EQ(argc, 2) << "--shards= is stripped, other args kept";
    EXPECT_EQ(resolveShards(four, 16), 4u);
    EXPECT_EQ(resolveShards(four, 2), 2u) << "clamped to the nodes";
    EXPECT_TRUE(parse({"--shards=auto"}).shardsAuto);
}

TEST(RunOptions, BadShardsAreRejectedWithTheValidValues)
{
    for (const char *bad : {"0", "", "-1", "abc", "2x", "+3"}) {
        SCOPED_TRACE(std::string("--shards=") + bad);
        testing::internal::CaptureStderr();
        RunOptions opts = parse({std::string("--shards=") + bad});
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_FALSE(opts.ok);
        EXPECT_NE(err.find("N >= 1 or 'auto'"), std::string::npos)
            << err;
    }
}

TEST(System, ZeroShardsInCodeIsFatal)
{
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.shards = 0;
    try {
        System sys(cfg);
        FAIL() << "shards = 0 must not build a System";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("SystemConfig::shards"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RunSpecs, PrecedenceTable)
{
    // For each spec a filled config field wins, then the environment,
    // then the flag. Audit has no config field, so its config column
    // is ignored.
    struct Row
    {
        bool config, env, flag;
        const char *faults; ///< dropProb the winner sets
        const char *topo;   ///< describe() of the winning wiring
        const char *audit;  ///< the audit text chosen
    };
    const Row rows[] = {
        {false, false, false, "0", "crossbar", ""},
        {false, false, true, "0.3", "mesh:4x4", "on-switch"},
        {false, true, false, "0.2", "torus:2x2", "every-event"},
        {false, true, true, "0.2", "torus:2x2", "every-event"},
        {true, false, false, "0.1", "mesh:2x2", ""},
        {true, false, true, "0.1", "mesh:2x2", "on-switch"},
        {true, true, false, "0.1", "mesh:2x2", "every-event"},
        {true, true, true, "0.1", "mesh:2x2", "every-event"},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(testing::Message() << "config " << row.config
                                        << " env " << row.env
                                        << " flag " << row.flag);
        SystemConfig cfg;
        if (row.config) {
            ASSERT_TRUE(net::parseFaultSpec("drop=0.1", cfg.faults,
                                            nullptr));
            ASSERT_TRUE(sim::parseTopologySpec("mesh:2x2", cfg.topology,
                                               nullptr));
        }
        ScopedEnv f("SHRIMP_FAULTS", row.env ? "drop=0.2" : nullptr);
        ScopedEnv t("SHRIMP_TOPO", row.env ? "torus:2x2" : nullptr);
        ScopedEnv a("SHRIMP_AUDIT", row.env ? "every-event" : nullptr);
        RunOptions flags;
        if (row.flag) {
            flags.faultSpec = "drop=0.3";
            flags.topoSpec = "mesh:4x4";
            flags.auditSpec = "on-switch";
        }
        const RunSpecs specs = resolveRunSpecs(cfg, flags);
        EXPECT_TRUE(specs.ok);
        EXPECT_DOUBLE_EQ(specs.faults.dropProb, std::atof(row.faults));
        EXPECT_EQ(specs.faults.specified, row.config || row.env || row.flag);
        EXPECT_EQ(specs.topology.describe(), row.topo);
        EXPECT_EQ(specs.audit, row.audit);
    }
}

TEST(RunSpecs, ParsedOptionsLetTheTopoFlagBeatTheEnvironment)
{
    // parseRunOptions resolves SHRIMP_TOPO into RunOptions::topology
    // for workloads that pin their config from it; there an explicit
    // --topo= wins, while a default-config System (resolveRunSpecs)
    // still lets the environment win over the flag.
    ScopedEnv env("SHRIMP_TOPO", "torus:2x2");
    EXPECT_EQ(parse({}).topology.describe(), "torus:2x2");
    RunOptions flag = parse({"--topo=mesh:4x4"});
    EXPECT_TRUE(flag.ok);
    EXPECT_EQ(flag.topology.describe(), "mesh:4x4");
    EXPECT_EQ(resolveRunSpecs(SystemConfig{}, flag).topology.describe(),
              "torus:2x2");
    parse({"--topo=crossbar"}); // the flag stays pending: restore
}

TEST(RunSpecs, MalformedTextsClearOk)
{
    ScopedEnv env("SHRIMP_FAULTS", "drop=banana");
    EXPECT_FALSE(resolveRunSpecs(SystemConfig{}, RunOptions{}).ok);
}
