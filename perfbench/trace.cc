#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace perfbench {

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> covered(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            covered[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = covered[i];
        std::sort(iv.begin(), iv.end());
        double union_ = 0.0;
        double curStart = 0.0, curEnd = 0.0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (open && a <= curEnd) {
                curEnd = std::max(curEnd, b);
                continue;
            }
            if (open)
                union_ += curEnd - curStart;
            curStart = a;
            curEnd = b;
            open = true;
        }
        if (open)
            union_ += curEnd - curStart;
        self[i] = std::max(0.0, (s.end - s.start) - union_);
    }
    return self;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans, const std::vector<double> &self,
               std::int64_t root)
{
    // Parents precede children, so one forward pass resolves each
    // span's root.
    std::vector<std::int64_t> rootOf(spans.size());
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        rootOf[i] = p < 0 ? static_cast<std::int64_t>(i)
                          : rootOf[static_cast<std::size_t>(p)];
        if (rootOf[i] == root)
            out[spans[i].name] += self[i];
    }
    return out;
}

std::int64_t
Tracer::open(const std::string &name, std::int64_t parent,
             std::uint64_t request)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
Tracer::close(std::int64_t id)
{
    if (id < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::write(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    char buf[160];
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "\"start\": %.9f, \"end\": %.9f, \"parent\": %lld, "
                      "\"request\": %llu}",
                      s.start, s.end, static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.request));
        // Span names are fixed identifiers: no characters to escape.
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
           << s.name << "\", " << buf;
    }
    os << "\n]}\n";
}

std::string
checkSpanArithmetic()
{
    // root [0,10] has children a [1,4] and b [3,6], which overlap, and
    // c [8,12], which outlives it; a has child a1 [2,3]. other [20,25]
    // is a second root with no children.
    std::vector<Span> spans = {
        {"root", 0, 10, -1, 0}, {"layer", 1, 4, 0, 1},
        {"layer", 3, 6, 0, 2},  {"c", 8, 12, 0, 3},
        {"a1", 2, 3, 1, 1},     {"other", 20, 25, -1, 4},
    };
    // root: 10 - |[1,6] u [8,10]| = 3; a: 3 - 1 = 2; b: 3; c: 4;
    // a1: 1; other: 5.
    const std::vector<double> wantSelf = {3, 2, 3, 4, 1, 5};
    const std::map<std::string, double> wantByName = {
        {"root", 3}, {"layer", 5}, {"c", 4}, {"a1", 1}};

    std::ostringstream err;
    const std::vector<double> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (std::abs(self[i] - wantSelf[i]) > 1e-12)
            err << "self time of span " << i << " is " << self[i]
                << ", want " << wantSelf[i] << "; ";
    if (selfTimeByName(spans, self, 0) != wantByName)
        err << "per-name self time under the first root is wrong; ";
    const auto other = selfTimeByName(spans, self, 5);
    if (other.size() != 1 || other.at("other") != 5)
        err << "per-name self time under the second root is wrong; ";
    return err.str();
}

} // namespace perfbench
