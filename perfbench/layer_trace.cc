#include "layer_trace.hh"

#include <cmath>
#include <fstream>
#include <utility>

#include "stats/json.hh"

namespace perfbench
{

int
SpanLog::open(std::string name, std::string job, int parent)
{
    spans_.push_back({std::move(name), std::move(job), parent,
                      Clock::now(), {}});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

void
SpanLog::write(const std::string &path) const
{
    namespace json = mtlbsim::json;
    auto events = json::Value::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto ev = json::Value::object();
        ev.set("name", s.name);
        ev.set("cat", s.name.substr(0, s.name.find('.')));
        ev.set("ph", "X");
        ev.set("ts", secondsBetween(origin_, s.start) * 1e6);
        ev.set("dur", secondsBetween(s.start, s.end) * 1e6);
        ev.set("pid", 1);
        ev.set("tid", 1);
        auto args = json::Value::object();
        args.set("id", static_cast<std::uint64_t>(i));
        args.set("job", s.job);
        args.set("parent", s.parent);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    auto doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    doc.dump(out, 0);
}

void
OpSplit::add(const OpSplit &other)
{
    for (auto [mine, theirs] :
         {std::pair{&tlbMiss, &other.tlbMiss},
          std::pair{&cacheMiss, &other.cacheMiss},
          std::pair{&fast, &other.fast},
          std::pair{&service, &other.service}}) {
        mine->seconds += theirs->seconds;
        mine->ops += theirs->ops;
        mine->events += theirs->events;
    }
    selfSeconds += other.selfSeconds;
    runs += other.runs;
    heldOutSeconds += other.heldOutSeconds;
    heldOutFitted += other.heldOutFitted;
}

OpSampler::OpSampler(const mtlbsim::Kernel &kernel,
                     const mtlbsim::Cache &cache)
    : kernel_(kernel), cache_(cache)
{
    drawRun();
}

void
OpSampler::drawRun()
{
    // xorshift64. Run lengths must vary, or the constant column
    // would equal the op count and the fit could not separate them.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    heldOut_ = rng_ % heldOutEvery == 0;
    runLength_ = heldOut_ ? heldOutRun
                          : 1 + (rng_ >> 8) % (2 * meanRun - 1);
}

void
OpSampler::start()
{
    started_ = true;
    tlbMisses0_ = kernel_.tlbMissCount();
    cacheMisses0_ = cache_.misses();
    runStart_ = Clock::now();
}

void
OpSampler::classifyPrevious()
{
    const std::uint64_t tlb = kernel_.tlbMissCount();
    const std::uint64_t miss = cache_.misses();
    Class cls = Fast;
    std::uint64_t events = 0;
    if (prevService_) {
        cls = Service;
    } else if (tlb != tlbMisses0_) {
        cls = TlbMiss;
        events = tlb - tlbMisses0_;
    } else if (miss != cacheMisses0_) {
        cls = CacheMiss;
        events = miss - cacheMisses0_;
    }
    ++runOps_[cls];
    ++inRun_;
    ++ops_[cls];
    events_[cls] += events;
    tlbMisses0_ = tlb;
    cacheMisses0_ = miss;
}

void
OpSampler::endRun()
{
    const Clock::time_point now = Clock::now();
    const double t = secondsBetween(runStart_, now);
    runStart_ = now;
    ++runs_;
    inRun_ = 0;

    if (heldOut_) {
        ++heldOutRuns_;
        heldOutSeconds_ += t;
        for (int c = 0; c < numClasses; ++c) {
            heldOutOps_[c] += runOps_[c];
            runOps_[c] = 0;
        }
    } else {
        double x[numCols] = {1.0};
        for (int c = 0; c < numClasses; ++c) {
            x[c + 1] = static_cast<double>(runOps_[c]);
            runOps_[c] = 0;
        }
        for (int i = 0; i < numCols; ++i) {
            for (int j = 0; j < numCols; ++j)
                xtx_[i][j] += x[i] * x[j];
            xty_[i] += x[i] * t;
        }
    }
    drawRun();
}

void
OpSampler::finish()
{
    if (!started_)
        return;
    classifyPrevious();
    endRun();
}

OpSplit
OpSampler::split() const
{
    // Fit only the columns that occur: the constant, and each class
    // with at least one op.
    int cols[numCols];
    int n = 0;
    cols[n++] = 0;
    for (int c = 0; c < numClasses; ++c) {
        if (ops_[c] != 0)
            cols[n++] = c + 1;
    }

    // Gaussian elimination with partial pivoting on the n x n system.
    double a[numCols][numCols + 1];
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j)
            a[i][j] = xtx_[cols[i]][cols[j]];
        a[i][n] = xty_[cols[i]];
    }
    double coef[numCols] = {};
    bool solvable = runs_ - heldOutRuns_ >= static_cast<std::uint64_t>(n);
    for (int k = 0; k < n && solvable; ++k) {
        int pivot = k;
        for (int i = k + 1; i < n; ++i) {
            if (std::abs(a[i][k]) > std::abs(a[pivot][k]))
                pivot = i;
        }
        if (a[pivot][k] == 0) {
            solvable = false;
            break;
        }
        std::swap(a[k], a[pivot]);
        for (int i = k + 1; i < n; ++i) {
            const double f = a[i][k] / a[k][k];
            for (int j = k; j <= n; ++j)
                a[i][j] -= f * a[k][j];
        }
    }
    for (int k = n - 1; k >= 0 && solvable; --k) {
        double v = a[k][n];
        for (int j = k + 1; j < n; ++j)
            v -= a[k][j] * coef[cols[j]];
        coef[cols[k]] = v / a[k][k];
    }

    OpSplit s;
    OpClass *classes[numClasses] = {&s.fast, &s.cacheMiss, &s.tlbMiss,
                                    &s.service};
    for (int c = 0; c < numClasses; ++c) {
        classes[c]->ops = ops_[c];
        classes[c]->events = events_[c];
        classes[c]->seconds =
            coef[c + 1] * static_cast<double>(ops_[c]);
    }
    s.selfSeconds = coef[0] * static_cast<double>(runs_);
    s.runs = runs_;
    s.heldOutSeconds = heldOutSeconds_;
    s.heldOutFitted = coef[0] * static_cast<double>(heldOutRuns_);
    for (int c = 0; c < numClasses; ++c)
        s.heldOutFitted += coef[c + 1] * static_cast<double>(heldOutOps_[c]);
    return s;
}

} // namespace perfbench
