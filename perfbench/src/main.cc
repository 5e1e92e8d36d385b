/**
 * @file
 * hermes_perfbench: runs one benchmark workload for a given time and
 * writes everything it measured as one JSON document (raw samples,
 * simulated metrics, per-layer numbers, correctness checks). The
 * command-line front end perfbench/run.py builds this program, turns
 * the document into metrics and prints them.
 *
 *   hermes_perfbench --workload single_core|eight_core|fig_sweep
 *                    --seed N --seconds S --trace 0|1 --work DIR
 *                    [--out FILE] [--scale F] [--golden FILE]
 *                    [--inject corrupt_result_entry]
 *                    [--start-ns NS] [--setup-only 0|1]
 *
 * --start-ns is the CLOCK_MONOTONIC time at which the caller spawned
 * this process; setup_s counts from it. --setup-only 1 stops after
 * the set-up, so only setup_s is measured.
 *
 * Exit status: 0 when every correctness check passed, 1 when one
 * failed (the document is still written), 2 on a usage error.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "sweep/result_cache.hh"

using namespace perfbench;

namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: hermes_perfbench --workload "
                 "single_core|eight_core|fig_sweep --seed N --seconds S "
                 "--trace 0|1 --work DIR [--out FILE] [--scale F] "
                 "[--golden FILE] [--inject corrupt_result_entry] "
                 "[--start-ns NS] [--setup-only 0|1]\n",
                 msg);
    return 2;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + num(v[i]);
    return out + "]";
}

std::string
numMap(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += (out.size() > 1 ? "," : "") + quote(k) + ":" + num(v);
    return out + "}";
}

/**
 * Peak resident memory of this program in MB. VmHWM belongs to the
 * address space exec made; ru_maxrss would also count the parent's
 * memory that a fork copied before the exec.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
toJson(const Options &opt, const Result &r, double peak_rss_mb)
{
    std::ostringstream o;
    o << "{\"workload\":" << quote(opt.workload)
      << ",\"source_root\":" << quote(PERFBENCH_SOURCE_ROOT)
      << ",\"seed\":" << opt.seed
      << ",\"scale\":" << num(opt.scale) << ",\"threads\":" << r.threads
      << ",\"trace\":" << (opt.trace ? "true" : "false")
      << ",\"setup_s\":" << numList(r.setupS)
      << ",\"setup_s_raw\":" << numList(r.setupRawS)
      << ",\"mips\":" << numList(r.mips)
      << ",\"mips_raw\":" << numList(r.mipsRaw)
      << ",\"host_speed\":" << numList(r.hostSpeed)
      << ",\"point_s\":" << numList(r.pointS) << ",\"pass_s\":{";
    bool first = true;
    for (const auto &[k, v] : r.passS) {
        o << (first ? "" : ",") << quote(k) << ":" << numList(v);
        first = false;
    }
    o << "},\"peak_rss_mb\":" << num(peak_rss_mb)
      << ",\"sim\":" << numMap(r.sim) << ",\"layers\":" << numMap(r.layers)
      << ",\"self_s\":" << numMap(r.selfS) << ",\"absent\":{";
    first = true;
    for (const auto &[k, v] : r.absent) {
        o << (first ? "" : ",") << quote(k) << ":" << quote(v);
        first = false;
    }
    o << "},\"spans\":" << quote(r.spansPath)
      << ",\"points_attempted\":" << r.pointsAttempted
      << ",\"points_failed\":" << r.pointsFailed
      << ",\"journals_identical\":"
      << (r.journalsIdentical < 0 ? "null"
          : r.journalsIdentical   ? "true"
                                  : "false")
      << ",\"checks\":[";
    for (std::size_t i = 0; i < r.checks.size(); ++i)
        o << (i ? "," : "") << "{\"name\":" << quote(r.checks[i].name)
          << ",\"ok\":" << (r.checks[i].ok ? "true" : "false")
          << ",\"detail\":" << quote(r.checks[i].detail) << "}";
    o << "]}\n";
    return o.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--scale")
                opt.scale = std::stod(v);
            else if (a == "--work")
                opt.workDir = v;
            else if (a == "--out")
                out_path = v;
            else if (a == "--golden")
                opt.goldenPath = v;
            else if (a == "--inject")
                opt.inject = v;
            else if (a == "--start-ns")
                opt.startNs = std::stoll(v);
            else if (a == "--setup-only")
                opt.setupOnly = std::stoi(v) != 0;
            else
                return usage(("unknown flag " + a).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (opt.workDir.empty())
        return usage("--work is required");
    if (!(opt.scale > 0) || !(opt.seconds >= 0))
        return usage("--scale must be > 0 and --seconds >= 0");
    if (!opt.inject.empty() && opt.inject != "corrupt_result_entry")
        return usage("unknown --inject");

    Result r;
    try {
        hermes::sweep::ensureDirectory(opt.workDir);
        if (opt.workload == "single_core")
            runSingleCore(opt, r);
        else if (opt.workload == "eight_core")
            runEightCore(opt, r);
        else if (opt.workload == "fig_sweep")
            runFigSweep(opt, r);
        else
            return usage(("unknown workload " + opt.workload).c_str());
        if (!opt.setupOnly)
            goldenCheck(opt.goldenPath, r);
    } catch (const std::exception &e) {
        r.check("run_completed", false, e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.workDir, ec);

    const std::string json = toJson(opt, r, peakRssMb());
    if (out_path.empty()) {
        std::fputs(json.c_str(), stdout);
    } else {
        std::ofstream f(out_path);
        f << json;
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
            return 1;
        }
    }
    bool ok = r.pointsFailed == 0;
    for (const Check &c : r.checks)
        ok = ok && c.ok;
    return ok ? 0 : 1;
}
