#include "bench.hh"

#include <algorithm>
#include <fstream>

#include "common/logging.hh"
#include "sim/reporting.hh"

namespace carf::bench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

int
Spans::open(const char *name, int parent, long job)
{
    if (!active_)
        return kNone;
    double now = std::chrono::duration<double>(Clock::now() - origin_)
                     .count();
    spans_.push_back({name, parent, job, now, now, 0});
    return static_cast<int>(spans_.size() - 1);
}

void
Spans::close(int id, u64 count)
{
    if (id == kNone)
        return;
    spans_[id].end =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    spans_[id].count = count;
}

std::map<std::string, double>
Spans::selfSeconds() const
{
    // The benchmark is one client thread, so sibling spans never
    // overlap and a parent's child time is the sum of their lengths.
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        double length = s.end - s.start;
        self[s.name] += length;
        if (s.parent != kNone)
            self[spans_[s.parent].name] -= length;
    }
    return self;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream file(path);
    file << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        file << (i ? ",\n" : "\n")
             << strprintf("{\"id\":%zu,\"parent\":%d,\"job\":%ld,"
                          "\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f,"
                          "\"count\":%llu}",
                          i, s.parent, s.job,
                          sim::jsonString(s.name).c_str(), s.start, s.end,
                          (unsigned long long)s.count);
    }
    file << "\n],\"self_s\":{";
    bool first = true;
    for (const auto &[name, seconds] : selfSeconds()) {
        file << (first ? "" : ",")
             << strprintf("%s:%.9f", sim::jsonString(name).c_str(),
                          seconds);
        first = false;
    }
    file << "}}\n";
    file.flush();
    return static_cast<bool>(file);
}

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (notes.size() < 20)
            notes.push_back(what);
    }
    return ok;
}

} // namespace carf::bench
