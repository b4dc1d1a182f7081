/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload <ler_rqt54|sweep_lp39|optimize_d5> --seed <n>
 *             --seconds <s> --trace <0|1> [--commit <sha>] [--out <dir>]
 *
 * Prints the machine, the workload's metrics as a table, and, as the
 * last line of standard output, one JSON object with the keys correct,
 * attempted, failed and metrics. With --out it also writes the run's
 * artifact (machine, seed, every metric, problems, and the spans of a
 * traced run) to <dir>/<workload>-seed<n>-trace<0|1>.json. Exits 0 when
 * the run completed, whether or not its checks passed; the JSON line
 * carries the verdict.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<ler_rqt54|sweep_lp39|optimize_d5> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <sha>] "
                 "[--out <dir>]\n",
                 why);
    return 2;
}

void
printTable(const char *title, const std::vector<perfbench::Metric> &ms)
{
    std::printf("%s\n", title);
    for (const perfbench::Metric &m : ms) {
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, commit, out_dir;
    perfbench::RunOptions opts;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value for " + arg).c_str());
        }
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = *end == '\0' && !val.empty();
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(val.c_str(), &end);
            have_seconds = *end == '\0' && opts.seconds >= 0.0;
        } else if (arg == "--trace") {
            have_trace = val == "0" || val == "1";
            opts.trace = val == "1";
        } else if (arg == "--commit") {
            commit = val;
        } else if (arg == "--out") {
            out_dir = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace) {
        return usage("--seed, --seconds and --trace are required");
    }

    perfbench::RunResult result;
    try {
        if (workload == "ler_rqt54") {
            result = perfbench::runLer(opts);
        } else if (workload == "sweep_lp39") {
            result = perfbench::runSweep(opts);
        } else if (workload == "optimize_d5") {
            result = perfbench::runOptimize(opts);
        } else {
            return usage(("unknown workload '" + workload + "'").c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    const perfbench::Machine machine = perfbench::probeMachine(commit);
    std::printf("machine: nproc=%u avx2=%d avx512f=%d build=%s "
                "compiler=\"%s\" commit=%s\n",
                machine.nproc, machine.avx2 ? 1 : 0, machine.avx512f ? 1 : 0,
                machine.buildType.c_str(), machine.compiler.c_str(),
                machine.commit.c_str());
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                workload.c_str(), (unsigned long long)opts.seed,
                opts.seconds, opts.trace ? 1 : 0);
    printTable("info:", result.info);
    printTable(opts.trace ? "per-layer metrics:" : "end-to-end metrics:",
               result.metrics);
    for (const std::string &p : result.problems) {
        std::printf("CHECK FAILED: %s\n", p.c_str());
    }

    if (!out_dir.empty()) {
        std::string path = out_dir + "/" + workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0") + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::string json = perfbench::artifactJson(
            machine, workload, opts.seed, opts.seconds, opts.trace, result);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("artifact: %s\n", path.c_str());
    }
    std::printf("%s\n", perfbench::resultLine(result).c_str());
    return 0;
}
