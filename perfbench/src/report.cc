#include "report.h"

#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

/** How a per-layer metric is derived from a traced replay. */
enum class Source
{
    SpanSeconds,        ///< Summed span time of `a`, per request.
    CounterPerRequest,  ///< Counter `a`, per request.
    CounterUsSeconds,   ///< Counter `a` in microseconds, per request.
    SpanMinusCounterUs, ///< Span time of `a` minus counter `b` in
                        ///< microseconds, per request.
    Ratio,              ///< Counter `a` over counter `b` (0 when b is 0).
    Given,              ///< Counter `a` as the caller computed it.
    SelfSeconds,        ///< Self time of layer `a`, per request.
    Coverage,           ///< Leaf span time over replay wall time.
};

struct Def
{
    const char *metric;
    const char *unit;
    Source source;
    const char *a = "";
    const char *b = "";
};

// The order here is the order of the final JSON line and the table.
const Def kDefs[] = {
    {"sim.sample_s", "s", Source::SpanSeconds, "sim.sample"},
    {"decoder.decode_s", "s", Source::SpanSeconds, "decoder.decode"},
    {"decoder.bp_s", "s", Source::SpanMinusCounterUs, "decoder.decode",
     "decoder.osd_us"},
    {"decoder.osd_s", "s", Source::CounterUsSeconds, "decoder.osd_us"},
    {"decoder.osd_shot_frac", "frac", Source::Ratio, "decoder.osd_shots",
     "decoder.shots"},
    {"decoder.lane_occupancy", "frac", Source::Ratio, "decoder.lane_busy",
     "decoder.lane_total"},
    {"api.parallel_efficiency", "frac", Source::Given,
     "api.parallel_efficiency"},
    {"circuit.compile_s", "s", Source::SpanSeconds, "circuit.compile"},
    {"sim.dem_build_s", "s", Source::SpanSeconds, "sim.dem_build"},
    {"decoder.build_s", "s", Source::SpanSeconds, "decoder.build"},
    {"api.sprt_chunks", "count", Source::CounterPerRequest,
     "api.sprt_chunks"},
    {"api.cache_hits", "count", Source::CounterPerRequest, "api.cache_hits"},
    {"api.cache_misses", "count", Source::CounterPerRequest,
     "api.cache_misses"},
    {"prophunt.subgraph_s", "s", Source::SpanSeconds, "prophunt.subgraph"},
    {"prophunt.ambiguous_frac", "frac", Source::Ratio, "prophunt.ambiguous",
     "prophunt.samples"},
    {"sat.maxsat_s", "s", Source::SpanSeconds, "sat.maxsat"},
    {"sat.encode_s", "s", Source::SpanMinusCounterUs, "sat.maxsat",
     "sat.solve_us"},
    {"sat.solve_s", "s", Source::CounterUsSeconds, "sat.solve_us"},
    {"sat.solves", "count", Source::CounterPerRequest, "sat.solves"},
    {"sat.variables", "count", Source::CounterPerRequest, "sat.variables"},
    {"sat.clauses", "count", Source::CounterPerRequest, "sat.clauses"},
    {"sat.timeouts", "count", Source::CounterPerRequest, "sat.timeouts"},
    {"prophunt.enumerate_s", "s", Source::SpanSeconds, "prophunt.enumerate"},
    {"prophunt.candidates", "count", Source::CounterPerRequest,
     "prophunt.candidates"},
    {"prophunt.verify_s", "s", Source::SpanSeconds, "prophunt.verify"},
    {"prophunt.verified_frac", "frac", Source::Ratio, "prophunt.verified",
     "prophunt.candidates"},
    {"search.beam_s", "s", Source::SpanSeconds, "search.beam"},
    {"search.bnb_s", "s", Source::SpanSeconds, "search.bnb"},
    {"search.bnb_pruned", "count", Source::CounterPerRequest,
     "search.bnb_pruned"},
    {"search.transposition_hit_frac", "frac", Source::Ratio,
     "search.tt_hits", "search.tt_probes"},
    {"circuit.self_s", "s", Source::SelfSeconds, "circuit"},
    {"sim.self_s", "s", Source::SelfSeconds, "sim"},
    {"decoder.self_s", "s", Source::SelfSeconds, "decoder"},
    {"api.self_s", "s", Source::SelfSeconds, "api"},
    {"prophunt.self_s", "s", Source::SelfSeconds, "prophunt"},
    {"sat.self_s", "s", Source::SelfSeconds, "sat"},
    {"search.self_s", "s", Source::SelfSeconds, "search"},
    {"trace.coverage_frac", "frac", Source::Coverage},
    {"trace.overhead_frac", "frac", Source::Given, "trace.overhead_frac"},
};

double
lookup(const std::map<std::string, double> &m, const std::string &key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

/** %.17g keeps every digit of a measured double. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if ((unsigned char)c < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
metricObject(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i == 0 ? "" : ", ") + quoted(metrics[i].name) +
               ": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

void
RunResult::fail(std::size_t request, const std::string &why)
{
    failedRequests.insert(request);
    problems.push_back(why);
}

Machine
probeMachine(const std::string &commit)
{
    Machine m;
    m.nproc = std::thread::hardware_concurrency();
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    __builtin_cpu_init();
    m.avx2 = __builtin_cpu_supports("avx2");
    m.avx512f = __builtin_cpu_supports("avx512f");
#endif
    m.buildType = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
    m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    m.compiler = std::string("gcc ") + __VERSION__;
#else
    m.compiler = "unknown";
#endif
    m.commit = commit.empty() ? "unknown" : commit;
    return m;
}

std::vector<Metric>
perLayerMetrics(const Tracer &tracer, std::size_t requests,
                const std::map<std::string, double> &counts)
{
    const double per = requests == 0 ? 0.0 : 1.0 / (double)requests;
    const std::map<std::string, double> self = tracer.layerSelfSeconds();
    std::vector<Metric> out;
    for (const Def &d : kDefs) {
        double v = 0.0;
        switch (d.source) {
        case Source::SpanSeconds:
            v = tracer.totalSeconds(d.a) * per;
            break;
        case Source::CounterPerRequest:
            v = lookup(counts, d.a) * per;
            break;
        case Source::CounterUsSeconds:
            v = lookup(counts, d.a) * 1e-6 * per;
            break;
        case Source::Ratio: {
            double den = lookup(counts, d.b);
            v = den == 0.0 ? 0.0 : lookup(counts, d.a) / den;
            break;
        }
        case Source::Given:
            v = lookup(counts, d.a);
            break;
        case Source::SelfSeconds:
            v = lookup(self, d.a) * per;
            break;
        case Source::SpanMinusCounterUs:
            v = (tracer.totalSeconds(d.a) - lookup(counts, d.b) * 1e-6) * per;
            break;
        case Source::Coverage:
            v = tracer.coverage();
            break;
        }
        out.push_back({d.metric, v, d.unit});
    }
    return out;
}

std::string
resultLine(const RunResult &r)
{
    return std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failedRequests.size()) +
           ", \"metrics\": " + metricObject(r.metrics) + "}";
}

std::string
artifactJson(const Machine &m, const std::string &workload, uint64_t seed,
             double seconds, bool trace, const RunResult &r)
{
    std::string out = "{\n";
    out += "  \"machine\": {\"nproc\": " + std::to_string(m.nproc) +
           ", \"avx2\": " + (m.avx2 ? "true" : "false") +
           ", \"avx512f\": " + (m.avx512f ? "true" : "false") +
           ", \"build_type\": " + quoted(m.buildType) +
           ", \"compiler\": " + quoted(m.compiler) +
           ", \"commit\": " + quoted(m.commit) + "},\n";
    out += "  \"workload\": " + quoted(workload) +
           ",\n  \"seed\": " + std::to_string(seed) +
           ",\n  \"seconds\": " + number(seconds) +
           ",\n  \"trace\": " + (trace ? "true" : "false") + ",\n";
    out += "  \"result\": " + resultLine(r) + ",\n";
    out += "  \"info\": " + metricObject(r.info) + ",\n";
    out += "  \"problems\": [";
    for (std::size_t i = 0; i < r.problems.size(); ++i) {
        out += (i == 0 ? "" : ", ") + quoted(r.problems[i]);
    }
    out += "],\n  \"spans\": " + r.tracer.toJson() +
           ",\n  \"request_spans\": " + r.requestSpans.toJson() + "\n}\n";
    return out;
}

} // namespace perfbench
