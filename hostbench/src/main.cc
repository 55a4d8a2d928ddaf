/**
 * @file
 * hostbench: host-time benchmark of the gvc simulator.
 *
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *             --reference FILE --scratch DIR [--report FILE]
 *             [--spans FILE] [--git-sha SHA --git-dirty 0|1]
 *   hostbench --record-reference FILE --seeds N,N,... --scratch DIR
 *
 * Prints a human-readable report on stdout and writes the full report
 * (every metric, the host/build fingerprint, the counter-gate verdict)
 * as JSON to --report.  hostbench/run.py builds this program and turns
 * the report into the benchmark's result line.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "workloads.hh"

#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_CXX_FLAGS
#define HOSTBENCH_CXX_FLAGS "unknown"
#endif
#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace hostbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "hostbench: %s\n", why.c_str());
    std::fprintf(stderr,
                 "usage: hostbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reference FILE --scratch DIR\n"
                 "                 [--report FILE] [--spans FILE] "
                 "[--git-sha SHA] [--git-dirty 0|1]\n"
                 "       hostbench --record-reference FILE --seeds N,... "
                 "--scratch DIR\n");
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0')
        usage(flag + " expects a non-negative integer, got '" + text + "'");
    return v;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
printReport(const Report &r)
{
    std::printf("hostbench %s seed=%llu %s reference=%s\n",
                r.workload.c_str(), (unsigned long long)r.seed,
                r.traced ? "traced" : "untraced", r.reference.c_str());
    for (const auto &[k, v] : r.fingerprint)
        std::printf("  %-12s %s\n", k.c_str(), v.c_str());
    for (const Metric &m : r.metrics) {
        if (m.samples)
            std::printf("  %-28s %16.6g %-6s (n=%llu)\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        (unsigned long long)m.samples);
        else
            std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    std::printf("  correct=%s attempted=%llu failed=%llu\n",
                r.correct() ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed);
    for (const auto &f : r.failures)
        std::printf("  FAILED %s\n", f.c_str());
    for (const auto &n : r.notes)
        std::printf("  note: %s\n", n.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string report_path, record_path, seeds_text, git_sha = "unknown",
                                                      git_dirty = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = parseU64(a, v);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = double(parseU64(a, v));
            have_seconds = true;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            o.traced = v == "1";
            have_trace = true;
        } else if (a == "--reference") {
            o.reference = v;
        } else if (a == "--scratch") {
            o.scratch = v;
        } else if (a == "--report") {
            report_path = v;
        } else if (a == "--spans") {
            o.spans_out = v;
        } else if (a == "--git-sha") {
            git_sha = v;
        } else if (a == "--git-dirty") {
            git_dirty = v;
        } else if (a == "--record-reference") {
            record_path = v;
        } else if (a == "--seeds") {
            seeds_text = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (o.scratch.empty())
        usage("--scratch is required");

    if (!record_path.empty()) {
        std::vector<std::uint64_t> seeds;
        std::stringstream ss(seeds_text);
        std::string item;
        while (std::getline(ss, item, ','))
            seeds.push_back(parseU64("--seeds", item));
        if (seeds.empty())
            usage("--record-reference needs --seeds");
        std::string err;
        if (!recordReference(seeds, o.scratch).save(record_path, &err))
            gvc::fatal("hostbench: " + err);
        return 0;
    }

    if (!have_workload || !have_seed || !have_seconds || !have_trace ||
        o.reference.empty())
        usage("--workload, --seed, --seconds, --trace and --reference are "
              "required");
    bool known = false;
    for (const auto &w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage("unknown workload '" + o.workload + "'");

    o.fingerprint = {
        {"cpu_model", cpuModel()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"compiler", HOSTBENCH_COMPILER},
        {"cxx_flags", HOSTBENCH_CXX_FLAGS},
        {"build_type", HOSTBENCH_BUILD_TYPE},
        {"git_sha", git_sha},
        {"git_dirty", git_dirty},
    };
    const Report r = measure(o);
    printReport(r);
    if (!report_path.empty()) {
        std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
        out << r.toJson().dump(1) << "\n";
        out.close();
        if (!out)
            gvc::fatal("hostbench: cannot write report '" + report_path +
                       "'");
    }
    return 0;
}
