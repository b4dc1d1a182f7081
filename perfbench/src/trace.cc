#include "trace.h"

#include <cstdio>

namespace perfbench {

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

uint64_t
Tracer::nowNs() const
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

Tracer::Scope::Scope(Tracer *tracer, const char *name, uint64_t request)
    : tracer_(tracer)
{
    if (tracer_ == nullptr) {
        return;
    }
    Span s;
    s.name = name;
    s.parent = tracer_->open_.empty() ? -1 : (int64_t)tracer_->open_.back();
    s.request = request;
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back(std::move(s));
    tracer_->open_.push_back(index_);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    tracer_->spans_[index_].startNs = tracer_->nowNs();
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr) {
        return;
    }
    tracer_->spans_[index_].endNs = tracer_->nowNs();
    tracer_->open_.pop_back();
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name) {
            total += s.seconds();
        }
    }
    return total;
}

std::map<std::string, double>
Tracer::layerSelfSeconds() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            child[(std::size_t)s.parent] += s.seconds();
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[layerOf(spans_[i].name)] += spans_[i].seconds() - child[i];
    }
    return self;
}

double
Tracer::coverage() const
{
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            has_child[(std::size_t)s.parent] = true;
        }
    }
    double leaves = 0.0;
    double roots = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent < 0) {
            roots += spans_[i].seconds();
        } else if (!has_child[i]) {
            leaves += spans_[i].seconds();
        }
    }
    return roots > 0.0 ? leaves / roots : 0.0;
}

std::string
Tracer::toJson() const
{
    std::string out = "[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n  {\"name\": \"%s\", \"start_ns\": %llu, "
                      "\"end_ns\": %llu, \"parent\": %lld, "
                      "\"request\": %llu}",
                      i == 0 ? "" : ",", s.name.c_str(),
                      (unsigned long long)s.startNs,
                      (unsigned long long)s.endNs, (long long)s.parent,
                      (unsigned long long)s.request);
        out += buf;
    }
    out += "\n]";
    return out;
}

} // namespace perfbench
