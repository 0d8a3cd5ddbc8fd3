#include "metrics/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

#include "common/stats.hh"
#include "metrics/sampler.hh"
#include "sim/event_queue.hh"

namespace tcpni
{
namespace metrics
{

namespace
{

thread_local Registry *tl_registry = nullptr;

} // namespace

Registry *
registry()
{
    return tl_registry;
}

void
setRegistry(Registry *r)
{
    tl_registry = r;
}

void
snapshot(const EventQueue &eq, Tick now)
{
    if (tl_registry) {
        eq.settleSleepers();
        tl_registry->snapshot(eq.queueId(), now);
    }
}

// --------------------------------------------------------------- Series

uint64_t
Series::value(Tick now) const
{
    switch (kind) {
      case Kind::counter:
      case Kind::gauge:
        return *static_cast<const uint64_t *>(src);
      case Kind::integral:
        return static_cast<const Integral *>(src)->at(now);
      case Kind::histogram:
        return hist().count();
    }
    return 0;
}

// ---------------------------------------------------------------- Group

Group::~Group()
{
    if (reg_)
        reg_->unlink(record_);
}

void
Group::attach(std::string name, EventQueue &eq)
{
    name_ = std::move(name);
    eq_ = &eq;
    if (!series_.empty())
        link();
}

void
Group::add(Kind kind, const char *name, const void *src,
           const char *desc)
{
    if (series_.empty())
        series_.reserve(8);
    series_.push_back({name, desc, src, kind});
    if (eq_ && series_.size() == 1)
        link();
}

void
Group::link()
{
    if (auto *r = registry(); r && !reg_)
        r->link(*this);
}

void
Group::addCounter(const char *name, const uint64_t *v, const char *desc)
{
    add(Kind::counter, name, v, desc);
}

void
Group::addGauge(const char *name, const uint64_t *v, const char *desc)
{
    add(Kind::gauge, name, v, desc);
}

void
Group::addIntegral(const char *name, const Integral *v,
                   const char *desc)
{
    add(Kind::integral, name, v, desc);
}

void
Group::addHistogram(const char *name, const Histogram *h,
                    const char *desc)
{
    add(Kind::histogram, name, h, desc);
}

namespace
{

/** A histogram as the JSON object both dumps share. */
void
writeHistJson(std::ostream &os, const Histogram &h)
{
    os << "{\"count\":" << h.count() << ",\"min\":" << h.min()
       << ",\"max\":" << h.max()
       << ",\"mean\":" << stats::jsonNum(h.mean())
       << ",\"p50\":" << h.percentile(0.50)
       << ",\"p90\":" << h.percentile(0.90)
       << ",\"p99\":" << h.percentile(0.99)
       << ",\"p999\":" << h.percentile(0.999) << "}";
}

} // namespace

void
Group::dump(std::ostream &os, Tick now) const
{
    if (eq_)
        eq_->settleSleepers();
    auto line = [&](const Series &s, const char *suffix,
                    const std::string &value) {
        os << std::left << std::setw(40)
           << (name_ + "." + s.name + suffix) << " " << std::right
           << std::setw(16) << value;
        if (*s.desc)
            os << "  # " << s.desc;
        os << '\n';
    };

    for (const Series &s : series_) {
        if (s.kind != Kind::histogram) {
            line(s, "", std::to_string(s.value(now)));
            continue;
        }
        const Histogram &h = s.hist();
        char mean[32];
        std::snprintf(mean, sizeof(mean), "%.3f", h.mean());
        line(s, ".count", std::to_string(h.count()));
        line(s, ".mean", mean);
        line(s, ".p50", std::to_string(h.percentile(0.50)));
        line(s, ".p99", std::to_string(h.percentile(0.99)));
        line(s, ".max", std::to_string(h.max()));
    }
}

void
Group::dumpJson(std::ostream &os, Tick now) const
{
    if (eq_)
        eq_->settleSleepers();
    os << "{\"name\":\"" << stats::jsonEscape(name_) << "\",\"stats\":{";
    bool first = true;
    for (const Series &s : series_) {
        os << (first ? "\"" : ",\"") << s.name << "\":";
        first = false;
        if (s.kind == Kind::histogram)
            writeHistJson(os, s.hist());
        else
            os << s.value(now);
    }
    os << "}}";
}

// -------------------------------------------------------------- Registry

Registry::Registry(Tick sample_interval) : interval_(sample_interval)
{
}

Registry::~Registry()
{
    // Groups that outlive the registry must not call back into it.
    for (Record &r : records_)
        if (r.live)
            r.live->reg_ = nullptr;
}

void
Registry::link(Group &g)
{
    uint64_t qid = g.eventq().queueId();
    auto it = simOfQueue_.find(qid);
    unsigned sim;
    if (it != simOfQueue_.end()) {
        sim = it->second;
    } else {
        sim = sims_++;
        simOfQueue_.emplace(qid, sim);
        // The Sampler's own group links back in here; the queue id is
        // now mapped, so it lands in the known-queue path above and
        // precedes @p g in the output.
        if (interval_ > 0)
            samplers_.push_back(std::make_unique<Sampler>(
                "eventq", g.eventq(), *this, qid, interval_));
    }
    records_.push_back({&g, sim, qid, false, {}, {}, {}});
    g.reg_ = this;
    g.record_ = records_.size() - 1;
}

void
Registry::unlink(size_t record)
{
    records_[record].live = nullptr;
}

void
Registry::prepare(Record &r)
{
    if (!r.ids.empty() || r.live->series().empty())
        return;
    r.name = r.live->name();
    for (const Series &s : r.live->series()) {
        r.ids.push_back(internSeries(r.name + "." + s.name));
        TaskMetrics::SeriesResult res;
        res.kind = s.kind == Kind::integral ? Kind::counter : s.kind;
        res.name = s.name;
        r.series.push_back(std::move(res));
    }
}

void
Registry::capture(Record &r, Tick now)
{
    prepare(r);
    const std::vector<Series> &series = r.live->series();
    for (size_t i = 0; i < series.size(); ++i) {
        TaskMetrics::SeriesResult &res = r.series[i];
        if (series[i].kind == Kind::histogram) {
            res.hist = series[i].hist();
            continue;
        }
        res.value = series[i].value(now);
        if (res.kind == Kind::gauge && res.value > res.peak)
            res.peak = res.value;
    }
    r.live->reg_ = nullptr;
    r.live = nullptr;
    r.kept = true;
}

uint32_t
Registry::internSeries(const std::string &full_name)
{
    auto it = seriesIds_.find(full_name);
    if (it != seriesIds_.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(seriesNames_.size());
    seriesNames_.push_back(full_name);
    seriesIds_.emplace(full_name, id);
    return id;
}

void
Registry::sampleNow(uint64_t queue_id, Tick tick)
{
    for (Record &r : records_) {
        if (!r.live || r.queueId != queue_id)
            continue;
        prepare(r);
        const std::vector<Series> &series = r.live->series();
        for (size_t i = 0; i < series.size(); ++i) {
            if (series[i].kind == Kind::histogram)
                continue;
            uint64_t v = series[i].value(tick);
            if (series[i].kind == Kind::gauge && v > r.series[i].peak)
                r.series[i].peak = v;
            if (rows_.size() < maxRows)
                rows_.push_back({r.sim, tick, r.ids[i], v});
            else
                ++droppedRows_;
        }
    }
}

void
Registry::snapshot(uint64_t queue_id, Tick now)
{
    auto it = simOfQueue_.find(queue_id);
    if (it == simOfQueue_.end())
        return;
    for (Record &r : records_)
        if (r.live && r.sim == it->second)
            capture(r, now);
}

TaskMetrics
Registry::finalize(std::string label)
{
    for (Record &r : records_)
        if (r.live)
            capture(r, r.live->eventq().curTick());

    TaskMetrics out;
    out.label = std::move(label);
    out.sims = sims_;
    out.seriesNames = seriesNames_;
    out.rows = std::move(rows_);
    out.droppedRows = droppedRows_;
    rows_.clear();

    // Merge same-named groups across the task's simulations:
    // counters sum, gauges keep {last, peak}, histograms merge.
    std::map<std::string, size_t> group_index;
    for (const Record &r : records_) {
        if (!r.kept)
            continue;
        auto [it, fresh] =
            group_index.emplace(r.name, out.groups.size());
        if (fresh)
            out.groups.push_back({r.name, {}});
        TaskMetrics::GroupResult &mg = out.groups[it->second];
        for (const TaskMetrics::SeriesResult &s : r.series) {
            TaskMetrics::SeriesResult *ms = nullptr;
            for (auto &cand : mg.series) {
                if (cand.name == s.name) {
                    ms = &cand;
                    break;
                }
            }
            if (!ms) {
                mg.series.emplace_back();
                ms = &mg.series.back();
                ms->kind = s.kind;
                ms->name = s.name;
            }
            switch (s.kind) {
              case Kind::counter:
              case Kind::integral:
                ms->value += s.value;
                break;
              case Kind::gauge:
                ms->value = s.value;
                ms->peak = std::max(ms->peak, s.peak);
                break;
              case Kind::histogram:
                ms->hist.merge(s.hist);
                break;
            }
        }
    }
    return out;
}

// -------------------------------------------- Collector and TaskScope

TaskScope
Collector::task(size_t slot, std::string label)
{
    return TaskScope(this, slot, std::move(label));
}

void
Collector::deposit(size_t slot, TaskMetrics &&m)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_[slot] = std::move(m);
}

void
Collector::writeJson(std::ostream &os) const
{
    using stats::jsonEscape;

    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"schema\":\"tcpni-metrics-1\",\"sampleInterval\":"
       << interval_ << ",\"tasks\":[";
    bool first_task = true;
    for (const auto &[slot, task] : tasks_) {
        (void)slot;
        if (!first_task)
            os << ",";
        first_task = false;
        os << "\n{\"label\":\"" << jsonEscape(task.label)
           << "\",\"sims\":" << task.sims << ",\"groups\":[";
        bool first_group = true;
        for (const auto &g : task.groups) {
            if (!first_group)
                os << ",";
            first_group = false;
            os << "\n{\"name\":\"" << jsonEscape(g.name) << "\"";
            for (Kind kind : {Kind::counter, Kind::gauge,
                              Kind::histogram}) {
                os << ",\""
                   << (kind == Kind::counter
                           ? "counters"
                           : kind == Kind::gauge ? "gauges"
                                                 : "histograms")
                   << "\":{";
                bool first_series = true;
                for (const auto &s : g.series) {
                    if (s.kind != kind)
                        continue;
                    // An untouched histogram has no distribution to
                    // report (min/percentiles would be meaningless);
                    // skip it, as the validator requires.
                    if (kind == Kind::histogram && s.hist.count() == 0)
                        continue;
                    if (!first_series)
                        os << ",";
                    first_series = false;
                    os << "\"" << jsonEscape(s.name) << "\":";
                    switch (kind) {
                      case Kind::counter:
                      case Kind::integral:
                        os << s.value;
                        break;
                      case Kind::gauge:
                        os << "{\"last\":" << s.value
                           << ",\"peak\":" << s.peak << "}";
                        break;
                      case Kind::histogram:
                        writeHistJson(os, s.hist);
                        break;
                    }
                }
                os << "}";
            }
            os << "}";
        }
        os << "],\"samples\":{\"dropped\":" << task.droppedRows
           << ",\"rows\":[";
        bool first_row = true;
        for (const SampleRow &r : task.rows) {
            if (!first_row)
                os << ",";
            first_row = false;
            os << "[" << r.sim << "," << r.tick << ",\""
               << jsonEscape(task.seriesNames[r.series]) << "\","
               << r.value << "]";
        }
        os << "]}}";
    }
    os << "\n]}\n";
}

void
Collector::writeCsv(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "label,sim,tick,metric,value\n";
    for (const auto &[slot, task] : tasks_) {
        (void)slot;
        for (const SampleRow &r : task.rows) {
            os << task.label << "," << r.sim << "," << r.tick << ","
               << task.seriesNames[r.series] << "," << r.value
               << "\n";
        }
    }
}

TaskScope::TaskScope(Collector *collector, size_t slot,
                     std::string label)
    : collector_(collector), slot_(slot), label_(std::move(label))
{
    if (!collector_)
        return;
    registry_ =
        std::make_unique<Registry>(collector_->sampleInterval());
    prev_ = registry();
    setRegistry(registry_.get());
}

TaskScope::~TaskScope()
{
    if (!registry_)
        return;
    setRegistry(prev_);
    collector_->deposit(slot_, registry_->finalize(label_));
}

} // namespace metrics
} // namespace tcpni
