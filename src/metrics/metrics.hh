/**
 * @file
 * The simulator's one telemetry registry.
 *
 * Every SimObject owns a Group (see SimObject::stats()); a component
 * registers each of its series there exactly once, in its
 * constructor, under one snake_case name.  An entry is plain data: a
 * pointer to a uint64_t counter or gauge field, to a Histogram, or to
 * an Integral (a time integral kept up to date where its level
 * changes).  Nothing is computed on read except Integral::at(), so
 * the text dump (System::dumpStats), the JSON dump
 * (System::dumpStatsJson), the periodic Sampler and the
 * "tcpni-metrics-1" JSON/CSV are all views over the same entries.
 *
 *  - **Registry** (per sweep task, thread-local; see registry() /
 *    setRegistry()).  While one is installed, a Group links itself to
 *    it when its first series is added.  With none installed -- the
 *    default, and always the case without --metrics -- a Group is a
 *    name, a queue pointer and a vector of entries, and the
 *    simulation is bit-identical to an uninstrumented build.
 *
 *  - **Sampler** (one per simulation, spawned by the Registry when a
 *    sample interval is configured).  A SimObject at statsPri that
 *    reads every linked series of its queue on a fixed tick interval,
 *    producing the time-series rows behind the per-link heatmap.
 *
 *  - **Collector / TaskScope** (per experiment run).  A TaskScope
 *    installs a fresh Registry for a sweep task and, on exit, folds
 *    the task's merged values and sample rows into the process-wide
 *    Collector, keyed by slot so the JSON/CSV is byte-identical
 *    whatever the worker count.
 *
 * Lifetime: final values are read once, by snapshot(), while every
 * component of the simulation is still alive.  sys::System calls it
 * from its destructor; a harness that builds components by hand
 * calls it itself when its run ends.  A snapshot copies the values
 * into the Registry and unlinks the groups, so the Registry never
 * reads a component after that.  A Group destroyed without a
 * snapshot merely unlinks (its series are left out of the task's
 * output); one still alive when the task finalizes is snapshotted
 * then.  Declare a TaskScope before the simulation objects it
 * observes, so its Registry outlives them.
 */

#ifndef TCPNI_METRICS_METRICS_HH
#define TCPNI_METRICS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/histogram.hh"
#include "sim/types.hh"

namespace tcpni
{

class EventQueue;

namespace metrics
{

class Registry;
class Sampler;

/** What a series measures; fixes its merge rule across simulations. */
enum class Kind : uint8_t
{
    counter,    //!< monotonic count; merged by summing
    gauge,      //!< instantaneous level; merged as {last, peak}
    integral,   //!< time integral of a level; a counter when exported
    histogram,  //!< latency histogram; merged by bucket addition
};

/**
 * The time integral of a level (a queue depth, a flag held asserted,
 * destinations at a limit): at tick t it is
 * area + level * (t - since).  Call set() wherever the level changes;
 * the open interval since the last change is added at read time, so
 * a value read at the end of a run covers it.
 */
struct Integral
{
    uint64_t area = 0;   //!< level x ticks folded up to @c since
    uint64_t level = 0;  //!< current level
    Tick since = 0;      //!< tick of the last change

    void
    set(uint64_t new_level, Tick now)
    {
        if (now > since) {
            area += level * (now - since);
            since = now;
        }
        level = new_level;
    }

    uint64_t
    at(Tick now) const
    {
        return now > since ? area + level * (now - since) : area;
    }
};

/** One registered series: where its value lives, and what it is. */
struct Series
{
    const char *name;  //!< snake_case; '.' separates sub-blocks
    const char *desc;
    const void *src;   //!< uint64_t, Integral or Histogram, by kind
    Kind kind;

    /** Counter/gauge value, or an integral read at @p now
     *  (histograms read as their sample count). */
    uint64_t value(Tick now) const;
    const Histogram &hist() const
    {
        return *static_cast<const Histogram *>(src);
    }
};

/**
 * One component's named series ("node0.ni" owning "sent",
 * "oq.occ_ticks", ...).  Names and descriptions are not copied: pass
 * string literals, or strings the component keeps alive.
 */
class Group
{
  public:
    /** An unnamed group, bound later with attach(). */
    Group() = default;
    Group(std::string name, EventQueue &eq)
        : name_(std::move(name)), eq_(&eq)
    {}
    ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Name the group and bind it to @p eq: for an owner that is
     *  built before it knows where it lives (a transport policy). */
    void attach(std::string name, EventQueue &eq);

    void addCounter(const char *name, const uint64_t *v,
                    const char *desc);
    void addGauge(const char *name, const uint64_t *v,
                  const char *desc);
    void addIntegral(const char *name, const Integral *v,
                     const char *desc);
    void addHistogram(const char *name, const Histogram *h,
                      const char *desc);

    const std::string &name() const { return name_; }
    EventQueue &eventq() const { return *eq_; }
    const std::vector<Series> &series() const { return series_; }

    /** Linked to a registry that has not yet snapshotted it. */
    bool linked() const { return reg_ != nullptr; }

    /** Write "group.series value  # desc" lines, integrals read at
     *  @p now; histograms as .count/.mean/.p50/.p99/.max lines. */
    void dump(std::ostream &os, Tick now) const;

    /** Write {"name":"...","stats":{...}}: counters, gauges and
     *  integrals (read at @p now) as numbers, histograms as
     *  {"count","min","max","mean","p50","p90","p99","p999"}, the
     *  shape the metrics JSON uses. */
    void dumpJson(std::ostream &os, Tick now) const;

  private:
    friend class Registry;

    void add(Kind kind, const char *name, const void *src,
             const char *desc);
    void link();

    std::string name_;
    EventQueue *eq_ = nullptr;
    std::vector<Series> series_;
    Registry *reg_ = nullptr;  //!< set while linked
    size_t record_ = 0;        //!< index in reg_'s records
};

/** One time-series sample: series @p series had @p value at @p tick
 *  in simulation @p sim of the task. */
struct SampleRow
{
    uint32_t sim;
    Tick tick;
    uint32_t series;
    uint64_t value;
};

/** A task's aggregated telemetry, produced when its TaskScope exits. */
struct TaskMetrics
{
    struct SeriesResult
    {
        Kind kind;           //!< counter, gauge or histogram
        std::string name;
        uint64_t value = 0;  //!< counter sum / gauge last
        uint64_t peak = 0;   //!< gauge peak
        Histogram hist;      //!< histogram merge
    };

    struct GroupResult
    {
        std::string name;
        std::vector<SeriesResult> series;
    };

    std::string label;
    unsigned sims = 0;                 //!< simulations observed
    std::vector<GroupResult> groups;   //!< merged across sims by name
    std::vector<std::string> seriesNames;  //!< SampleRow::series -> name
    std::vector<SampleRow> rows;
    uint64_t droppedRows = 0;
};

/**
 * The per-task registry groups link to while it is installed.
 *
 * Detects simulation boundaries by EventQueue identity: the first
 * group linked against a never-before-seen queue starts a new
 * simulation index and (when a sample interval is configured) spawns a
 * Sampler on that queue; later groups linked against the same queue
 * join its simulation regardless of link order (a sharded machine
 * interleaves registrations across its shard queues).
 */
class Registry
{
  public:
    /** @p sample_interval of 0 disables time-series sampling. */
    explicit Registry(Tick sample_interval);
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Tick sampleInterval() const { return interval_; }

    /** Called by the Sampler: record one sample of every linked
     *  series on queue @p queue_id. */
    void sampleNow(uint64_t queue_id, Tick tick);

    /** Copy the final values of every linked group of the
     *  simulation owning queue @p queue_id, integrals read at
     *  @p now, and unlink those groups.  Only these copies reach
     *  finalize(). */
    void snapshot(uint64_t queue_id, Tick now);

    /** Snapshot anything still linked and aggregate across
     *  simulations.  The registry is inert afterwards. */
    TaskMetrics finalize(std::string label);

  private:
    friend class Group;

    /** A linked (later: snapshotted) group, in link order. */
    struct Record
    {
        Group *live;        //!< null once snapshotted or destroyed
        unsigned sim;
        uint64_t queueId;
        bool kept = false;  //!< snapshotted: part of the output
        std::string name;
        std::vector<uint32_t> ids;  //!< interned "group.series" names
        std::vector<TaskMetrics::SeriesResult> series;
    };

    void link(Group &g);
    void unlink(size_t record);
    /** Fill @p r 's per-series results from its live group. */
    void prepare(Record &r);
    void capture(Record &r, Tick now);
    uint32_t internSeries(const std::string &full_name);

    /** Bound on stored rows so a tight sample interval on a long run
     *  cannot exhaust host memory; overflow is counted. */
    static constexpr size_t maxRows = 1u << 20;

    Tick interval_;
    std::map<uint64_t, unsigned> simOfQueue_;
    unsigned sims_ = 0;
    std::vector<Record> records_;
    std::vector<std::unique_ptr<Sampler>> samplers_;
    std::vector<std::string> seriesNames_;
    std::map<std::string, uint32_t> seriesIds_;
    std::vector<SampleRow> rows_;
    uint64_t droppedRows_ = 0;
};

/**
 * This thread's installed registry, or nullptr when telemetry is off.
 * Thread-local for the same reason the trace sink is: every parallel
 * sweep worker observes only its own task's simulations, lock-free.
 */
Registry *registry();

/** Install (or, with nullptr, remove) this thread's registry. */
void setRegistry(Registry *r);

/**
 * Snapshot the simulation owning @p eq into this thread's registry
 * (a no-op when none is installed): call once when a run ends, while
 * its components are alive, for each of its queues.  Integrals are
 * read at @p now.
 */
void snapshot(const EventQueue &eq, Tick now);

class TaskScope;

/**
 * Process-wide accumulator of per-task telemetry for one experiment
 * run.  Tasks deposit under a mutex, keyed by slot index, so output
 * order is independent of worker scheduling.
 */
class Collector
{
  public:
    explicit Collector(Tick sample_interval)
        : interval_(sample_interval)
    {}

    /** Begin telemetry for sweep slot @p slot labelled @p label.
     *  Hold the returned scope for the whole task body, declared
     *  before the task's simulation objects. */
    TaskScope task(size_t slot, std::string label);

    Tick sampleInterval() const { return interval_; }

    /**
     * Write all deposited tasks as the documented
     * "tcpni-metrics-1" JSON schema.
     */
    void writeJson(std::ostream &os) const;

    /** Write the time-series rows as long-format CSV:
     *  label,sim,tick,metric,value. */
    void writeCsv(std::ostream &os) const;

  private:
    friend class TaskScope;

    void deposit(size_t slot, TaskMetrics &&m);

    Tick interval_;
    mutable std::mutex mutex_;
    std::map<size_t, TaskMetrics> tasks_;
};

/**
 * RAII guard installing a task's Registry on this thread.  Inert when
 * created from a null collector (the --metrics-off path).
 */
class TaskScope
{
  public:
    TaskScope(Collector *collector, size_t slot, std::string label);
    ~TaskScope();

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

  private:
    Collector *collector_;
    size_t slot_;
    std::string label_;
    std::unique_ptr<Registry> registry_;
    Registry *prev_ = nullptr;
};

} // namespace metrics
} // namespace tcpni

#endif // TCPNI_METRICS_METRICS_HH
